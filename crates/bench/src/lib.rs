//! # acr-bench — experiment harness
//!
//! The report generators behind `acr_cli figures`: [`FIGURE_TASKS`] lists
//! every table, figure and supplementary study of the paper by name. See
//! `DESIGN.md` for the experiment index and `EXPERIMENTS.md` for measured
//! vs. paper numbers.

#![forbid(unsafe_code)]

pub mod figures;
mod table;

use acr::{
    campaign_sweep, CampaignRunResult, Experiment, ExperimentError, ExperimentSpec, RunResult,
};
use acr_ckpt::CampaignConfig;
use acr_workloads::{generate, Benchmark, WorkloadConfig};

/// Default thread count of the paper's main figures.
pub const DEFAULT_THREADS: u32 = 8;

/// The paper's run of `bench`: its program generated at `wl`, on the
/// Table I machine with one core per thread, 25 checkpoints and the
/// benchmark's default Slice threshold. `refine` adjusts that spec with
/// the [`ExperimentSpec`] builders before the experiment is built (a
/// figure's swept knob, a CLI flag, a trace sink). Every figure, CLI
/// subcommand and test that turns a workload into a run starts here.
pub fn paper_experiment(
    bench: Benchmark,
    wl: WorkloadConfig,
    refine: impl FnOnce(ExperimentSpec) -> ExperimentSpec,
) -> Result<Experiment, ExperimentError> {
    let spec = ExperimentSpec::default()
        .with_cores(wl.threads)
        .with_threshold(bench.default_threshold());
    Experiment::new(generate(bench, &wl), refine(spec))
}

/// The generated workload at `threads` threads and `scale`, default seed.
pub fn workload(threads: u32, scale: f64) -> WorkloadConfig {
    WorkloadConfig::default()
        .with_threads(threads)
        .with_scale(scale)
}

/// The fault campaign `acr_cli inject` and `bench` run: `template` split
/// over `workloads` and each share run on the workload's
/// [`paper_experiment`] at `wl` ([`campaign_sweep`]), `jobs` workers in
/// all (0 = auto). Returns each workload that received faults with its
/// campaign result and host nanoseconds, in workload order; every result
/// is byte-identical for every `jobs` value.
pub fn run_campaigns(
    workloads: &[Benchmark],
    wl: WorkloadConfig,
    template: &CampaignConfig,
    amnesic: bool,
    jobs: usize,
) -> Vec<(Benchmark, Result<CampaignRunResult, ExperimentError>, u64)> {
    campaign_sweep(template, workloads.len(), amnesic, jobs, |w| {
        paper_experiment(workloads[w], wl, |spec| spec)
    })
    .into_iter()
    .map(|(w, run, host_ns)| (workloads[w], run, host_ns))
    .collect()
}

/// The five main configurations for one benchmark (Figs. 6–8).
#[derive(Debug, Clone)]
pub struct MainRow {
    /// Benchmark.
    pub bench: Benchmark,
    /// `No_Ckpt` baseline.
    pub no_ckpt: RunResult,
    /// `Ckpt_NE`.
    pub ckpt_ne: RunResult,
    /// `Ckpt_E` (one error).
    pub ckpt_e: RunResult,
    /// `ReCkpt_NE`.
    pub reckpt_ne: RunResult,
    /// `ReCkpt_E` (one error).
    pub reckpt_e: RunResult,
}

impl MainRow {
    /// Runs all five configurations for `bench` at `threads` threads and
    /// `scale`, under the global coordinated scheme.
    pub fn run(bench: Benchmark, threads: u32, scale: f64) -> Result<Self, ExperimentError> {
        let mut exp = paper_experiment(bench, workload(threads, scale), |spec| spec)?;
        Ok(MainRow {
            bench,
            no_ckpt: exp.run_no_ckpt()?,
            ckpt_ne: exp.run_ckpt(0)?,
            ckpt_e: exp.run_ckpt(1)?,
            reckpt_ne: exp.run_reckpt(0)?,
            reckpt_e: exp.run_reckpt(1)?,
        })
    }
}

/// Arithmetic mean.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// One independent unit of figure/table work: its name (the `--only`
/// label, manifest hash key and host phase) and a runner returning its
/// reports in print order at a workload scale. Figures that share an
/// expensive sweep (Figs. 6–9 all read `main_sweep`) are one task, so the
/// sweep runs once.
pub type FigureTask = (
    &'static str,
    fn(f64) -> Result<Vec<String>, ExperimentError>,
);

/// Every task, in print order.
pub static FIGURE_TASKS: &[FigureTask] = &[
    ("fig01", |_| Ok(vec![figures::fig01_report()])),
    ("table1", |_| Ok(vec![figures::table1_report()])),
    ("figs06-09", |scale| {
        let rows = figures::main_sweep(scale)?;
        Ok(vec![
            figures::fig06_report(&rows),
            figures::fig07_report(&rows),
            figures::fig08_report(&rows),
            figures::fig09_report(&rows),
        ])
    }),
    ("table2", |s| one(figures::table2_report(s))),
    ("fig10", |s| one(figures::fig10_report(s))),
    ("fig10-csv", |s| one(figures::fig10_csv(s))),
    ("fig11", |s| one(figures::fig11_report(s))),
    ("fig12", |s| one(figures::fig12_report(s))),
    ("scalability", |s| one(figures::scalability_report(s))),
    ("fig13", |s| one(figures::fig13_report(s))),
    ("ablation-addrmap", |s| {
        one(figures::ablation_addrmap_report(s))
    }),
    ("ablation-detection-latency", |s| {
        one(figures::ablation_detection_latency_report(s))
    }),
    ("ablation-hierarchical", |s| {
        one(figures::ablation_hierarchical_report(s))
    }),
    ("ablation-scratchpad", |s| {
        one(figures::ablation_scratchpad_report(s))
    }),
    ("ablation-trivial-slices", |s| {
        one(figures::ablation_trivial_slices_report(s))
    }),
    ("energy-breakdown", |s| {
        one(figures::energy_breakdown_report(s))
    }),
    ("extension-placement", |s| {
        one(figures::extension_placement_report(s))
    }),
];

/// The tasks `acr_cli figures` runs by default: the paper's figures and
/// tables.
pub const PAPER_FIGURES: &str = "fig01,table1,figs06-09,table2,fig10,fig11,fig12,scalability,fig13";

fn one(report: Result<String, ExperimentError>) -> Result<Vec<String>, ExperimentError> {
    report.map(|r| vec![r])
}

/// One sampled `ReCkpt_NE` run each of `is`, `cg` and `mg`, serialised as
/// JSONL metric samples tagged per workload.
pub fn sampled_metrics(scale: f64, sample_interval: u64) -> Result<String, ExperimentError> {
    let mut out = String::new();
    let wl = workload(DEFAULT_THREADS, scale);
    for bench in [Benchmark::Is, Benchmark::Cg, Benchmark::Mg] {
        let mut exp =
            paper_experiment(bench, wl, |spec| spec.with_sample_interval(sample_interval))?;
        let run = exp.run_reckpt(0)?;
        let report = run.report.as_ref().expect("engine runs carry a report");
        out.push_str(
            &report
                .series
                .to_jsonl(&[("workload", bench.name()), ("run", "reckpt_ne")]),
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use acr_workloads::Benchmark;

    #[test]
    fn static_reports_render() {
        let f1 = crate::figures::fig01_report();
        assert!(f1.contains("Fig 1"));
        assert!(f1.lines().count() > 9);
        let t1 = crate::figures::table1_report();
        assert!(t1.contains("1.09 GHz"));
        assert!(t1.contains("7.6 GB/s"));
    }

    #[test]
    fn main_row_runs_one_benchmark_small() {
        let row = MainRow::run(Benchmark::Cg, 2, 0.1).expect("runs");
        assert!(row.ckpt_ne.cycles >= row.no_ckpt.cycles);
        let f6 = crate::figures::fig06_report(std::slice::from_ref(&row));
        assert!(f6.contains("cg"));
        let f9 = crate::figures::fig09_report(std::slice::from_ref(&row));
        assert!(f9.contains("Overall"));
    }

    #[test]
    fn task_names_are_unique_and_cover_the_defaults() {
        let mut names: Vec<&str> = FIGURE_TASKS.iter().map(|t| t.0).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), FIGURE_TASKS.len());
        for name in PAPER_FIGURES.split(',') {
            assert!(names.contains(&name), "{name}");
        }
    }

    #[test]
    fn helpers() {
        assert_eq!(mean(&[]), 0.0);
        assert!((mean(&[1.0, 3.0]) - 2.0).abs() < 1e-12);
    }
}
