//! Runtime invariant monitors, sampled at epoch-commit boundaries.
//!
//! Every committed checkpoint is a natural quiescent point: the epoch is
//! sealed, the record deque is clean (torn generations are truncated by
//! recovery before the next commit), and the log controller's lifetime
//! tallies are stable. The engine samples five cheap structural
//! invariants there:
//!
//! * **log conservation** — interval record/omit sums never exceed the
//!   [`LogController`](acr_mem::LogController) lifetime totals, the
//!   lifetime totals are monotone, and (when a decision ledger is
//!   attached) ledger decisions equal `lifetime_logged +
//!   lifetime_omitted` exactly;
//! * **epoch monotonicity** — retained checkpoint records carry strictly
//!   increasing `begins_epoch` and non-decreasing progress/cycles;
//! * **AddrMap occupancy** — the policy's bounded association storage
//!   reports `live ≤ capacity` ([`OmissionPolicy::occupancy`]);
//! * **checksum spot-check** — the oldest and newest retained checkpoint
//!   records still pass [`CheckpointRecord::verify`];
//! * **machine audit** — `Machine::audit` reports zero architectural
//!   violations (pc in bounds or halted, flags consistent).
//!
//! Monitoring is purely observational: it reads engine state, charges no
//! simulated cycles, and publishes only `ckpt.invariant.*` gauges — a
//! monitored run is cycle- and hash-identical by construction. A breach
//! increments the monitor's counter, records the first offending
//! `(epoch, cycle, detail)`, and marks the case for postmortem capture.
//!
//! [`OmissionPolicy::occupancy`]: crate::OmissionPolicy::occupancy
//! [`CheckpointRecord::verify`]: crate::CheckpointRecord::verify

use acr_trace::MetricsRegistry;

/// Check/breach tallies for one monitor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MonitorCounters {
    /// Times the invariant was evaluated.
    pub checks: u64,
    /// Times it did not hold.
    pub breaches: u64,
}

impl MonitorCounters {
    /// Records one evaluation; `breach` is an optional violation detail.
    fn observe(&mut self, breach: bool) {
        self.checks += 1;
        if breach {
            self.breaches += 1;
        }
    }
}

/// The first invariant breach of a run, for postmortem triage.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BreachRecord {
    /// Monitor name (`log_conservation`, `epoch_monotonic`,
    /// `addrmap_occupancy`, `checksum_spot`, `machine_audit`).
    pub monitor: &'static str,
    /// Epoch sealed by the commit that sampled the breach.
    pub epoch: u64,
    /// Machine cycle at the sampling point.
    pub cycle: u64,
    /// Human-readable violation detail.
    pub detail: String,
}

/// Per-monitor sampling summary carried in the
/// [`BerReport`](crate::BerReport).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct InvariantSummary {
    /// Log-bit / ledger conservation vs `LogController::lifetime_*`.
    pub log_conservation: MonitorCounters,
    /// Retained-checkpoint epoch/progress/cycle monotonicity.
    pub epoch_monotonic: MonitorCounters,
    /// Policy association-storage occupancy bound.
    pub addrmap_occupancy: MonitorCounters,
    /// Spot re-verification of retained checkpoint checksums.
    pub checksum_spot: MonitorCounters,
    /// Machine architectural-state audit.
    pub machine_audit: MonitorCounters,
    /// The first breach observed, if any.
    pub first_breach: Option<BreachRecord>,
}

impl InvariantSummary {
    /// `(name, counters)` pairs in a fixed, documented order.
    pub fn monitors(&self) -> [(&'static str, MonitorCounters); 5] {
        [
            ("log_conservation", self.log_conservation),
            ("epoch_monotonic", self.epoch_monotonic),
            ("addrmap_occupancy", self.addrmap_occupancy),
            ("checksum_spot", self.checksum_spot),
            ("machine_audit", self.machine_audit),
        ]
    }

    /// Total evaluations across all monitors.
    pub fn total_checks(&self) -> u64 {
        self.monitors().iter().map(|(_, c)| c.checks).sum()
    }

    /// Total violations across all monitors.
    pub fn total_breaches(&self) -> u64 {
        self.monitors().iter().map(|(_, c)| c.breaches).sum()
    }

    /// The counters of the monitor named `monitor` (one of the
    /// [`InvariantSummary::monitors`] names).
    pub(crate) fn counters_mut(&mut self, monitor: &str) -> &mut MonitorCounters {
        match monitor {
            "log_conservation" => &mut self.log_conservation,
            "epoch_monotonic" => &mut self.epoch_monotonic,
            "addrmap_occupancy" => &mut self.addrmap_occupancy,
            "checksum_spot" => &mut self.checksum_spot,
            "machine_audit" => &mut self.machine_audit,
            other => unreachable!("unknown invariant monitor {other}"),
        }
    }

    /// Records one evaluation of `monitor`; a `Some(detail)` outcome is a
    /// breach and captures the first-breach record.
    pub(crate) fn observe(
        &mut self,
        monitor: &'static str,
        epoch: u64,
        cycle: u64,
        outcome: Option<String>,
    ) {
        self.counters_mut(monitor).observe(outcome.is_some());
        if let (Some(detail), None) = (outcome, &self.first_breach) {
            self.first_breach = Some(BreachRecord {
                monitor,
                epoch,
                cycle,
                detail,
            });
        }
    }

    /// Publishes `ckpt.invariant.<monitor>.checks` / `.breaches` gauges
    /// plus the `ckpt.invariant.breaches` total (set-semantics, so
    /// refreshes are idempotent).
    pub fn publish(&self, reg: &mut MetricsRegistry) {
        for (name, c) in self.monitors() {
            reg.set(&format!("ckpt.invariant.{name}.checks"), c.checks);
            reg.set(&format!("ckpt.invariant.{name}.breaches"), c.breaches);
        }
        reg.set("ckpt.invariant.breaches", self.total_breaches());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_observations_count_checks_only() {
        let mut s = InvariantSummary::default();
        s.observe("log_conservation", 1, 100, None);
        s.observe("machine_audit", 1, 100, None);
        assert_eq!(s.total_checks(), 2);
        assert_eq!(s.total_breaches(), 0);
        assert!(s.first_breach.is_none());
    }

    #[test]
    fn first_breach_is_sticky() {
        let mut s = InvariantSummary::default();
        s.observe("checksum_spot", 3, 500, Some("record 2 failed".into()));
        s.observe("checksum_spot", 4, 600, Some("record 3 failed".into()));
        assert_eq!(s.checksum_spot.breaches, 2);
        let b = s.first_breach.as_ref().unwrap();
        assert_eq!(b.monitor, "checksum_spot");
        assert_eq!(b.epoch, 3);
        assert_eq!(b.cycle, 500);
        assert_eq!(b.detail, "record 2 failed");
    }

    #[test]
    fn publish_emits_per_monitor_and_total_gauges() {
        let mut s = InvariantSummary::default();
        s.observe("epoch_monotonic", 2, 10, None);
        s.observe("addrmap_occupancy", 2, 10, Some("live 5 > cap 4".into()));
        let mut reg = MetricsRegistry::new();
        s.publish(&mut reg);
        assert_eq!(reg.get("ckpt.invariant.epoch_monotonic.checks"), Some(1));
        assert_eq!(reg.get("ckpt.invariant.epoch_monotonic.breaches"), Some(0));
        assert_eq!(
            reg.get("ckpt.invariant.addrmap_occupancy.breaches"),
            Some(1)
        );
        assert_eq!(reg.get("ckpt.invariant.breaches"), Some(1));
        assert_eq!(reg.get("ckpt.invariant.machine_audit.checks"), Some(0));
    }
}
