//! Host-side performance observability: wall-clock phase timers,
//! throughput derivation, peak-RSS sampling and per-worker load counters.
//!
//! Everything else in this crate measures *simulated* time and is bound by
//! the determinism contract. This module is the one deliberate exception:
//! it measures the *host* — how fast the simulator itself runs — and its
//! numbers legitimately vary between machines, runs and worker counts.
//! The two worlds stay separated by key prefix: host measurements live
//! under `host.*` keys, are reported in run manifests next to (never
//! inside) the sim-deterministic section, and are compared with tolerance
//! bands by `acr_cli diff`, not byte-exactly.

use std::time::Instant;

/// One worker's share of a parallel run: how long it was busy inside work
/// items and how many items the dynamic handout gave it. Produced by
/// `ParallelRunner` in `acr-ckpt`; published under `host.jobs.*`.
///
/// Load data is host-side observability only: which cases land on which
/// worker depends on scheduling, so these counters are *not*
/// jobs-invariant and never enter content hashes or report equality.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WorkerLoad {
    /// Nanoseconds spent executing work items.
    pub busy_ns: u64,
    /// Work items executed.
    pub items: u64,
}

/// Merges per-worker loads index-by-index (worker 0 with worker 0, …),
/// padding `into` as needed — how multi-workload runs combine the loads
/// of consecutive parallel sections into one per-worker view.
pub fn merge_loads(into: &mut Vec<WorkerLoad>, from: &[WorkerLoad]) {
    if into.len() < from.len() {
        into.resize(from.len(), WorkerLoad::default());
    }
    for (slot, load) in into.iter_mut().zip(from) {
        slot.busy_ns += load.busy_ns;
        slot.items += load.items;
    }
}

/// A monotonic wall-clock stopwatch — the one sanctioned way to time host
/// work in this workspace (replaces ad-hoc `Instant::now()` pairs).
#[derive(Debug, Clone, Copy)]
pub struct Stopwatch(Instant);

impl Stopwatch {
    /// Starts timing now.
    pub fn start() -> Self {
        Stopwatch(Instant::now())
    }

    /// Nanoseconds elapsed since start (saturating at `u64::MAX`, which
    /// is ~584 years).
    pub fn elapsed_ns(&self) -> u64 {
        u64::try_from(self.0.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }
}

/// Peak resident set size of the current process in bytes, read from
/// `/proc/self/status` (`VmHWM`). Returns 0 where the proc filesystem is
/// unavailable (non-Linux hosts) — manifests record the 0 rather than
/// omitting the key, so diffs stay structural.
pub fn peak_rss_bytes() -> u64 {
    let status = match std::fs::read_to_string("/proc/self/status") {
        Ok(s) => s,
        Err(_) => return 0,
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// Events (or cycles, or instructions) per host second, as an integer
/// rate. Returns 0 when no time elapsed.
pub fn per_second(amount: u64, wall_ns: u64) -> u64 {
    if wall_ns == 0 {
        return 0;
    }
    ((amount as u128) * 1_000_000_000 / (wall_ns as u128)) as u64
}

/// Collects one run's host-side measurements: named phase timings, derived
/// throughput, worker loads and arbitrary `host.*` gauges, rendered as an
/// ordered `host.*` key list for the run manifest.
///
/// Keys come out in a fixed layout — `host.wall_ns` first, then
/// `host.phase.*` in first-use order, then every extra in first-use order,
/// then `host.rss.peak_bytes` — so two manifests from the same code path
/// always have the same key set and order even though the values differ.
#[derive(Debug)]
pub struct HostPerf {
    start: Stopwatch,
    phases: Vec<(String, u64)>,
    extra: Vec<(String, u64)>,
}

impl HostPerf {
    /// Starts the run clock.
    pub fn start() -> Self {
        HostPerf {
            start: Stopwatch::start(),
            phases: Vec::new(),
            extra: Vec::new(),
        }
    }

    /// Times `f` and charges its wall time to `phase` (accumulating onto
    /// any previous time under the same name).
    pub fn time<R>(&mut self, phase: &str, f: impl FnOnce() -> R) -> R {
        let sw = Stopwatch::start();
        let out = f();
        self.add_phase_ns(phase, sw.elapsed_ns());
        out
    }

    /// Adds `ns` to `phase` (created on first use, keeping first-use
    /// order).
    pub fn add_phase_ns(&mut self, phase: &str, ns: u64) {
        if let Some((_, slot)) = self.phases.iter_mut().find(|(p, _)| p == phase) {
            *slot += ns;
        } else {
            self.phases.push((phase.to_owned(), ns));
        }
    }

    /// Sets an extra gauge under `host.<key>` (overwriting; first-use
    /// order).
    pub fn set(&mut self, key: &str, value: u64) {
        if let Some((_, slot)) = self.extra.iter_mut().find(|(k, _)| k == key) {
            *slot = value;
        } else {
            self.extra.push((key.to_owned(), value));
        }
    }

    /// Derives throughput gauges from simulated totals over `wall_ns`:
    /// `host.tput.cycles_per_sec` and `host.tput.instr_per_sec` — the
    /// "simulated time per host time" rates the ROADMAP's speed goal is
    /// judged by.
    pub fn record_throughput(&mut self, sim_cycles: u64, retired: u64, wall_ns: u64) {
        self.set("tput.cycles_per_sec", per_second(sim_cycles, wall_ns));
        self.set("tput.instr_per_sec", per_second(retired, wall_ns));
    }

    /// Publishes worker utilization under `host.jobs.*`: the requested and
    /// resolved worker counts, per-worker busy time and item counts, and a
    /// load-imbalance gauge (`100 * max_busy / mean_busy - 100`, 0 for a
    /// perfectly balanced pool).
    pub fn record_jobs(&mut self, requested: u64, resolved: u64, loads: &[WorkerLoad]) {
        self.set("jobs.requested", requested);
        self.set("jobs.resolved", resolved);
        self.set("jobs.count", loads.len() as u64);
        for (i, load) in loads.iter().enumerate() {
            self.set(&format!("jobs.{i}.busy_ns"), load.busy_ns);
            self.set(&format!("jobs.{i}.items"), load.items);
        }
        let busy: Vec<u64> = loads.iter().map(|l| l.busy_ns).collect();
        let sum: u64 = busy.iter().sum();
        if !busy.is_empty() && sum > 0 {
            let mean = sum / busy.len() as u64;
            let max = *busy.iter().max().expect("non-empty");
            self.set(
                "jobs.imbalance_pct",
                (max * 100 / mean.max(1)).saturating_sub(100),
            );
        }
    }

    /// Nanoseconds since the run clock started.
    pub fn wall_ns(&self) -> u64 {
        self.start.elapsed_ns()
    }

    /// Renders the collected measurements as an ordered `host.*` key list
    /// (stamping the total wall time and peak RSS at this moment).
    pub fn finish(&self) -> Vec<(String, u64)> {
        let mut out = Vec::with_capacity(2 + self.phases.len() + self.extra.len());
        out.push(("host.wall_ns".to_owned(), self.wall_ns()));
        for (p, ns) in &self.phases {
            out.push((format!("host.phase.{p}.ns"), *ns));
        }
        for (k, v) in &self.extra {
            out.push((format!("host.{k}"), *v));
        }
        out.push(("host.rss.peak_bytes".to_owned(), peak_rss_bytes()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phases_accumulate_in_first_use_order() {
        let mut p = HostPerf::start();
        p.add_phase_ns("run", 10);
        p.add_phase_ns("build", 5);
        p.add_phase_ns("run", 7);
        let keys: Vec<(String, u64)> = p
            .finish()
            .into_iter()
            .filter(|(k, _)| k.starts_with("host.phase."))
            .collect();
        assert_eq!(
            keys,
            [
                ("host.phase.run.ns".to_owned(), 17),
                ("host.phase.build.ns".to_owned(), 5)
            ]
        );
    }

    #[test]
    fn time_charges_the_closure_and_returns_its_value() {
        let mut p = HostPerf::start();
        let v = p.time("work", || 41 + 1);
        assert_eq!(v, 42);
        let report = p.finish();
        let (_, ns) = report
            .iter()
            .find(|(k, _)| k == "host.phase.work.ns")
            .expect("phase recorded");
        // Can't assert a wall-clock value, only that one was recorded and
        // that the layout starts with the total.
        assert!(report[0].0 == "host.wall_ns" && report[0].1 >= *ns);
    }

    #[test]
    fn jobs_metrics_cover_every_worker() {
        let mut p = HostPerf::start();
        p.record_jobs(
            0,
            2,
            &[
                WorkerLoad {
                    busy_ns: 300,
                    items: 3,
                },
                WorkerLoad {
                    busy_ns: 100,
                    items: 1,
                },
            ],
        );
        let report = p.finish();
        let get = |k: &str| report.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
        assert_eq!(get("host.jobs.resolved"), Some(2));
        assert_eq!(get("host.jobs.count"), Some(2));
        assert_eq!(get("host.jobs.0.busy_ns"), Some(300));
        assert_eq!(get("host.jobs.1.items"), Some(1));
        // mean busy = 200, max = 300 -> 50% imbalance.
        assert_eq!(get("host.jobs.imbalance_pct"), Some(50));
    }

    #[test]
    fn merge_loads_is_index_wise_and_pads() {
        let mut a = vec![WorkerLoad {
            busy_ns: 5,
            items: 1,
        }];
        merge_loads(
            &mut a,
            &[
                WorkerLoad {
                    busy_ns: 10,
                    items: 2,
                },
                WorkerLoad {
                    busy_ns: 20,
                    items: 3,
                },
            ],
        );
        assert_eq!(
            a,
            [
                WorkerLoad {
                    busy_ns: 15,
                    items: 3
                },
                WorkerLoad {
                    busy_ns: 20,
                    items: 3
                }
            ]
        );
    }

    #[test]
    fn per_second_handles_edges() {
        assert_eq!(per_second(100, 0), 0);
        assert_eq!(per_second(1_000, 1_000_000_000), 1_000);
        assert_eq!(per_second(3, 2_000_000_000), 1, "integer floor");
    }

    #[test]
    fn peak_rss_is_nonzero_on_linux() {
        if std::path::Path::new("/proc/self/status").exists() {
            assert!(peak_rss_bytes() > 0);
        }
    }
}
