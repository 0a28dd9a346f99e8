//! Deterministic sweep over independent items.
//!
//! The CLI's `inject`, `bench`, `trace` and `profile` subcommands each run
//! one independent job per workload; [`sweep`] shards that outer loop
//! across worker threads with the same jobs-invariance guarantee as the
//! per-case campaign parallelism in `acr-ckpt`: results come back in item
//! order, each job builds its own `Experiment` (and, when tracing, its
//! own in-memory `TraceSink`) inside the worker thread, and only the
//! job's plain-data result crosses the thread boundary. [`campaign_sweep`]
//! is that sweep for one fault campaign split over several workloads.
//!
//! [`ExperimentSpec`](crate::ExperimentSpec) is deliberately `!Send` (it
//! carries the `Rc`-based `SharedSink`), so a job cannot be handed a
//! prebuilt spec: the compiler enforces the per-worker isolation the
//! deterministic merge relies on.

use crate::{CampaignRunResult, Experiment, ExperimentError};
use acr_ckpt::{CampaignConfig, ParallelRunner};
use acr_trace::Stopwatch;

/// Runs `job(i, inner_jobs)` for every item index `i` in `0..items`
/// across `jobs` worker threads (0 = auto) and returns each result with
/// the host nanoseconds it took, in item order.
///
/// With more items than workers the parallelism lives at the item level;
/// with more workers than items the surplus is handed down: `outer =
/// min(jobs, items)` items run side by side and each receives `inner =
/// jobs / outer` for its own shards (a campaign's
/// [`acr_ckpt::CampaignConfig::jobs`]), so a single-item sweep still
/// scales. The host time is observability only (it feeds
/// `host.phase.<item>.ns` in run manifests), never part of a result.
pub fn sweep<T, F>(items: usize, jobs: usize, job: F) -> Vec<(T, u64)>
where
    T: Send,
    F: Fn(usize, usize) -> T + Sync,
{
    let budget = ParallelRunner::new(jobs).jobs();
    let outer = budget.min(items).max(1);
    let inner = (budget / outer).max(1);
    ParallelRunner::new(outer).run_ordered(items, |i| {
        let sw = Stopwatch::start();
        let result = job(i, inner);
        (result, sw.elapsed_ns())
    })
}

/// Runs `template` split over `workloads` workloads
/// ([`CampaignConfig::split`]): each share on the experiment `build`
/// returns for its workload index, through [`sweep`] with `jobs` workers
/// in all (0 = auto). Returns the index of each workload that received
/// faults with its campaign result and host nanoseconds, in workload
/// order; every result is byte-identical for every `jobs` value.
pub fn campaign_sweep<F>(
    template: &CampaignConfig,
    workloads: usize,
    amnesic: bool,
    jobs: usize,
    build: F,
) -> Vec<(usize, Result<CampaignRunResult, ExperimentError>, u64)>
where
    F: Fn(usize) -> Result<Experiment, ExperimentError> + Sync,
{
    let split = template.split(workloads);
    let runs = sweep(split.len(), jobs, |i, inner| {
        let (w, cfg) = &split[i];
        let cfg = CampaignConfig {
            jobs: inner,
            ..cfg.clone()
        };
        build(*w)?.run_fault_campaign(&cfg, amnesic)
    });
    split
        .iter()
        .zip(runs)
        .map(|((w, _), (run, host_ns))| (*w, run, host_ns))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ExperimentSpec;
    use acr_isa::{AluOp, Program, ProgramBuilder, Reg};

    fn kernel(threads: usize, iters: u64) -> Program {
        let mut b = ProgramBuilder::new(threads);
        b.set_mem_bytes(1 << 20);
        for t in 0..threads as u32 {
            let base = u64::from(t) * 131072;
            let tb = b.thread(t);
            tb.imm(Reg(10), base);
            let outer = tb.begin_loop(Reg(8), Reg(9), 12);
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

    /// A three-workload campaign — reports, hashes, recovery energy — is
    /// identical for every jobs value, including the budget-split cases
    /// (more workers than items hand the surplus to per-case shards).
    #[test]
    fn campaign_sweep_is_jobs_invariant() {
        let template = CampaignConfig {
            count: 18,
            num_checkpoints: 5,
            ..CampaignConfig::default()
        };
        let run = |jobs| -> Vec<CampaignRunResult> {
            campaign_sweep(&template, 3, true, jobs, |w| {
                let spec = ExperimentSpec::default().with_cores(2).with_checkpoints(5);
                Experiment::new(kernel(2, 40 + 10 * w as u64), spec)
            })
            .into_iter()
            .map(|(_, run, _)| run.expect("sweep runs"))
            .collect()
        };
        let seq = run(1);
        assert_eq!(seq.len(), 3);
        for jobs in [2usize, 4, 8] {
            for (s, p) in seq.iter().zip(&run(jobs)) {
                assert_eq!(s.report, p.report, "jobs={jobs}");
                assert_eq!(s.report.content_hash(), p.report.content_hash());
                assert_eq!(
                    s.recovery_energy_joules.to_bits(),
                    p.recovery_energy_joules.to_bits(),
                    "jobs={jobs}"
                );
            }
        }
    }

    /// Every item runs exactly once, results land in item order, and the
    /// worker budget splits as `outer = min(jobs, items)`, `inner = jobs /
    /// outer`.
    #[test]
    fn results_are_in_item_order_with_the_budget_split() {
        let inner_of = |items, jobs| -> Vec<(usize, usize)> {
            sweep(items, jobs, |i, inner| (i, inner))
                .into_iter()
                .map(|(r, _)| r)
                .collect()
        };
        assert_eq!(inner_of(3, 1), [(0, 1), (1, 1), (2, 1)]);
        assert_eq!(inner_of(2, 8), [(0, 4), (1, 4)]);
        assert_eq!(inner_of(1, 4), [(0, 4)]);
        assert_eq!(inner_of(4, 2), [(0, 1), (1, 1), (2, 1), (3, 1)]);
        assert!(inner_of(0, 4).is_empty());
    }
}
