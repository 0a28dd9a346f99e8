//! Dependency-free parallel execution with deterministic, index-ordered
//! merge.
//!
//! Fault-injection campaigns and multi-workload sweeps are embarrassingly
//! parallel: every case is an independent run over its own fresh
//! [`Machine`](acr_sim::Machine) and policy, and no case reads another
//! case's output. What is *not* automatic is determinism of the merged
//! result — a naive channel-based collect would order results by
//! completion time, which varies with scheduling. [`ParallelRunner`]
//! therefore separates the two concerns:
//!
//! * **work distribution** is dynamic (a shared atomic work index hands
//!   out the next case to whichever worker is free, so long and short
//!   cases balance), but
//! * **result placement** is static: every result is stored at its case
//!   index, so the merged `Vec` is identical to the sequential loop's
//!   output for every worker count, byte for byte.
//!
//! Workers never share mutable simulator state. The simulator's
//! [`SharedSink`](acr_trace::SharedSink) is deliberately `Rc`-based (and
//! therefore `!Send`), which the compiler turns into a guarantee: a
//! `Machine` *cannot* leak across threads, so each worker must construct
//! its own inside the worker closure. Only plain data (`Program`,
//! configs, reference images) crosses the thread boundary, and only by
//! shared reference.
//!
//! Built on `std::thread::scope` only — no new crates, matching the
//! workspace's no-external-deps ethos.

use std::sync::atomic::{AtomicUsize, Ordering};

use acr_trace::{Stopwatch, WorkerLoad};

/// Environment variable overriding the default worker count (`0` or a
/// non-numeric value fall back to the detected parallelism).
pub const JOBS_ENV: &str = "ACR_JOBS";

/// The default worker count: `ACR_JOBS` if set to a positive integer,
/// otherwise [`std::thread::available_parallelism`], otherwise 1.
pub fn available_jobs() -> usize {
    if let Ok(v) = std::env::var(JOBS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Shards `n` independent work items across a fixed pool of scoped
/// worker threads and merges the results in item-index order.
///
/// The runner guarantees *jobs-invariance*: for a pure per-item function
/// the returned `Vec` is identical for every worker count, including 1
/// (which runs a plain sequential loop on the calling thread, spawning
/// nothing).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelRunner {
    jobs: usize,
}

impl ParallelRunner {
    /// A runner with `jobs` workers; `0` means auto ([`available_jobs`]).
    pub fn new(jobs: usize) -> Self {
        let jobs = if jobs == 0 { available_jobs() } else { jobs };
        ParallelRunner { jobs: jobs.max(1) }
    }

    /// The resolved worker count (≥ 1).
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Runs `f(i)` for every `i in 0..n` and returns the results in index
    /// order. Work is handed out dynamically via a shared atomic index;
    /// placement is by index, so the output order never depends on
    /// scheduling.
    pub fn run_ordered<R, F>(&self, n: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        self.run_ordered_loads(n, f).0
    }

    /// Like [`ParallelRunner::run_ordered`], but additionally reports each
    /// worker's host-side load ([`WorkerLoad`]): wall time spent inside
    /// work items and the number of items the dynamic handout gave it.
    ///
    /// The loads are observability only — which cases land on which worker
    /// depends on scheduling, so they are *not* jobs-invariant and must
    /// never flow into content hashes or compared reports. They feed the
    /// `host.jobs.*` section of run manifests.
    pub fn run_ordered_loads<R, F>(&self, n: usize, f: F) -> (Vec<R>, Vec<WorkerLoad>)
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        let workers = self.jobs.min(n.max(1));
        if workers <= 1 {
            let mut load = WorkerLoad::default();
            let results = (0..n)
                .map(|i| {
                    let sw = Stopwatch::start();
                    let r = f(i);
                    load.busy_ns += sw.elapsed_ns();
                    load.items += 1;
                    r
                })
                .collect();
            return (results, vec![load]);
        }

        let next = AtomicUsize::new(0);
        let mut slots: Vec<Option<R>> = Vec::with_capacity(n);
        slots.resize_with(n, || None);
        let mut loads: Vec<WorkerLoad> = Vec::with_capacity(workers);

        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        let mut load = WorkerLoad::default();
                        let mut done: Vec<(usize, R)> = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            let sw = Stopwatch::start();
                            done.push((i, f(i)));
                            load.busy_ns += sw.elapsed_ns();
                            load.items += 1;
                        }
                        (done, load)
                    })
                })
                .collect();
            for h in handles {
                match h.join() {
                    Ok((done, load)) => {
                        for (i, r) in done {
                            slots[i] = Some(r);
                        }
                        loads.push(load);
                    }
                    Err(panic) => std::panic::resume_unwind(panic),
                }
            }
        });

        let results = slots
            .into_iter()
            .map(|s| s.expect("every index 0..n was claimed by exactly one worker"))
            .collect();
        (results, loads)
    }
}

impl Default for ParallelRunner {
    /// Auto-sized runner ([`available_jobs`]).
    fn default() -> Self {
        ParallelRunner::new(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_index_ordered_for_every_jobs_value() {
        let expect: Vec<u64> = (0..97u64).map(|i| i * i + 1).collect();
        for jobs in [1, 2, 3, 4, 8, 16] {
            let r = ParallelRunner::new(jobs).run_ordered(97, |i| (i as u64) * (i as u64) + 1);
            assert_eq!(r, expect, "jobs={jobs}");
        }
    }

    #[test]
    fn zero_items_and_zero_jobs_are_fine() {
        let r = ParallelRunner::new(0);
        assert!(r.jobs() >= 1);
        let out: Vec<u32> = r.run_ordered(0, |_| unreachable!("no items"));
        assert!(out.is_empty());
    }

    #[test]
    fn loads_account_for_every_item_without_touching_results() {
        for jobs in [1, 3, 4, 8] {
            let (results, loads) =
                ParallelRunner::new(jobs).run_ordered_loads(30, |i| i as u64 * 2);
            assert_eq!(results, (0..30).map(|i| i * 2).collect::<Vec<u64>>());
            assert_eq!(loads.len(), jobs, "one load per worker");
            assert_eq!(
                loads.iter().map(|l| l.items).sum::<u64>(),
                30,
                "jobs={jobs}: every item charged to exactly one worker"
            );
        }
    }

    #[test]
    fn single_job_runs_on_the_calling_thread() {
        let caller = std::thread::current().id();
        let ids = ParallelRunner::new(1).run_ordered(4, |_| std::thread::current().id());
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn worker_panic_propagates() {
        let caught = std::panic::catch_unwind(|| {
            ParallelRunner::new(2).run_ordered(8, |i| {
                if i == 5 {
                    panic!("boom");
                }
                i
            });
        });
        assert!(caught.is_err());
    }
}
