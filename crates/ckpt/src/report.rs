//! Per-run results: interval/recovery records and aggregate statistics.

use acr_mem::MemStats;
use acr_sim::SimStats;
use acr_trace::TimeSeries;

use crate::monitor::InvariantSummary;

/// One sealed checkpoint interval, as the per-interval data of Figs. 9/10.
#[derive(Debug, Clone, Default, Copy, PartialEq, Eq)]
pub struct IntervalRecord {
    /// Log epoch index.
    pub epoch: u64,
    /// Progress at the closing checkpoint.
    pub progress: u64,
    /// Old-value records written to the log.
    pub records: u64,
    /// First updates omitted by the policy (ACR).
    pub omitted: u64,
    /// Checkpoint bytes actually written (log records + register files).
    pub bytes: u64,
    /// Bytes a non-amnesic baseline would have written for the same
    /// interval (records + omitted + register files).
    pub baseline_bytes: u64,
    /// Stall cycles the checkpoint imposed on its participants.
    pub stall_cycles: u64,
    /// Dirty lines flushed.
    pub lines_flushed: u64,
}

impl IntervalRecord {
    /// Percentage reduction of this interval's checkpoint size relative to
    /// the non-amnesic baseline.
    pub fn reduction_pct(&self) -> f64 {
        if self.baseline_bytes == 0 {
            0.0
        } else {
            100.0 * (self.baseline_bytes - self.bytes) as f64 / self.baseline_bytes as f64
        }
    }
}

/// One recovery event.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryRecord {
    /// Progress at which the error was detected.
    pub detected_at_progress: u64,
    /// Machine cycles at detection.
    pub detected_at_cycles: u64,
    /// Epoch rolled back to.
    pub safe_epoch: u64,
    /// Log records read and restored.
    pub restored_records: u64,
    /// Values regenerated by recomputation (ACR).
    pub recomputed_values: u64,
    /// Total Slice instructions executed while recomputing.
    pub recompute_alu_ops: u64,
    /// Stall imposed on the victim cores (roll-back + recomputation).
    pub stall_cycles: u64,
    /// Useful work thrown away: cycles between the safe checkpoint and
    /// detection (re-executed afterwards).
    pub waste_cycles: u64,
    /// Victim core mask (all cores under the global scheme).
    pub victim_mask: u64,
    /// Words still differing from the safe checkpoint's shadow snapshot
    /// after restoration (oracle on). Always zero while no scheduled error
    /// carries a corruption, since a mismatch then panics instead.
    pub shadow_divergence: u64,
    /// Restore/replay attempts beyond the first (escalation rung 1).
    pub replay_retries: u32,
    /// Checkpoint generations skipped because their integrity checksum
    /// failed verification (escalation rung 2).
    pub generation_fallbacks: u32,
    /// Whether this recovery escalated into degraded full-logging mode
    /// (rung 3; cleared by the next clean checkpoint commit).
    pub degraded_entered: bool,
}

/// Aggregate result of one [`crate::BerEngine`] run.
#[derive(Debug, Clone, Default)]
pub struct BerReport {
    /// Final execution time in cycles (max over cores).
    pub cycles: u64,
    /// Simulator instruction-mix statistics.
    pub sim: SimStats,
    /// Memory-subsystem statistics (incl. log traffic).
    pub mem: MemStats,
    /// Every sealed interval, in execution order (re-executed intervals
    /// appear again).
    pub intervals: Vec<IntervalRecord>,
    /// Every recovery event.
    pub recoveries: Vec<RecoveryRecord>,
    /// Checkpoints established.
    pub checkpoints_taken: u64,
    /// Errors injected and handled.
    pub errors_handled: u64,
    /// Total cycles spent stalled in checkpoints (summed over
    /// participating cores' groups, max-per-group accounting).
    pub checkpoint_stall_cycles: u64,
    /// Total cycles spent in recovery stalls.
    pub recovery_stall_cycles: u64,
    /// Checkpoints streamed to the second level (hierarchical mode).
    pub secondary_checkpoints: u64,
    /// Bytes streamed to the second level.
    pub secondary_bytes: u64,
    /// Cycles stalled on second-level streaming.
    pub secondary_stall_cycles: u64,
    /// State corruptions applied to the machine (zero while no scheduled
    /// error carries one).
    pub faults_injected: u64,
    /// Recoveries triggered by a simulator exception (corrupted register
    /// or pc causing an illegal access) ahead of the scheduled detection.
    pub exception_detections: u64,
    /// Total shadow-divergent words across all recoveries.
    pub divergent_words: u64,
    /// Machine cycle at which each injected fault landed (applied to the
    /// machine state), in injection order. Empty while no scheduled error
    /// carries a corruption.
    pub fault_landing_cycles: Vec<u64>,
    /// Total recovery re-replay attempts across all recoveries.
    pub replay_retries: u64,
    /// Total checkpoint-generation fallbacks across all recoveries.
    pub generation_fallbacks: u64,
    /// Times the engine entered degraded full-logging mode.
    pub degraded_entries: u64,
    /// Recoveries whose escalation ladder was exhausted (every re-replay
    /// attempt failed; the image is best-effort and divergence, if any,
    /// is counted by the oracle).
    pub escalation_exhausted: u64,
    /// Recoveries aborted by the escalation watchdog as hung (see
    /// [`crate::ResilienceConfig::watchdog_budget_cycles`]). The run stops
    /// with [`acr_sim::SimError::RecoveryHang`] when this fires.
    pub recovery_hangs: u64,
    /// Invariant-monitor tallies sampled at every epoch-commit boundary.
    pub invariants: InvariantSummary,
    /// Interval-sampled metrics time series, when sampling was enabled on
    /// the machine before the run. Empty otherwise.
    pub series: TimeSeries,
}

impl BerReport {
    /// Logged and omitted first updates summed over the sealed intervals.
    pub(crate) fn interval_first_updates(&self) -> (u64, u64) {
        self.intervals
            .iter()
            .fold((0, 0), |(r, o), i| (r + i.records, o + i.omitted))
    }

    /// Total checkpointed bytes across intervals.
    pub fn total_checkpoint_bytes(&self) -> u64 {
        self.intervals.iter().map(|i| i.bytes).sum()
    }

    /// Total bytes the non-amnesic baseline would have checkpointed.
    pub fn total_baseline_bytes(&self) -> u64 {
        self.intervals.iter().map(|i| i.baseline_bytes).sum()
    }

    /// Overall checkpoint-size reduction percentage (the *Overall* columns
    /// of Fig. 9).
    pub fn overall_reduction_pct(&self) -> f64 {
        let base = self.total_baseline_bytes();
        if base == 0 {
            0.0
        } else {
            100.0 * (base - self.total_checkpoint_bytes()) as f64 / base as f64
        }
    }

    /// Size reduction of the *largest* baseline interval (the *Max*
    /// columns of Fig. 9: the anticipated memory-footprint reduction,
    /// since only the two most recent checkpoints are retained).
    pub fn max_interval_reduction_pct(&self) -> f64 {
        self.intervals
            .iter()
            .max_by_key(|i| i.baseline_bytes)
            .map(IntervalRecord::reduction_pct)
            .unwrap_or(0.0)
    }
}

impl BerReport {
    /// Serialises the per-interval records as CSV (header included) — the
    /// raw data behind Figs. 9/10, ready for plotting.
    pub fn intervals_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from(
            "epoch,progress,records,omitted,bytes,baseline_bytes,reduction_pct,stall_cycles,lines_flushed\n",
        );
        for i in &self.intervals {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{:.4},{},{}",
                i.epoch,
                i.progress,
                i.records,
                i.omitted,
                i.bytes,
                i.baseline_bytes,
                i.reduction_pct(),
                i.stall_cycles,
                i.lines_flushed
            );
        }
        out
    }

    /// Serialises the recovery records as CSV (header included).
    pub fn recoveries_csv(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from(
            "detected_at_progress,detected_at_cycles,safe_epoch,restored_records,recomputed_values,recompute_alu_ops,stall_cycles,waste_cycles,victim_mask,shadow_divergence,replay_retries,generation_fallbacks,degraded\n",
        );
        for r in &self.recoveries {
            let _ = writeln!(
                out,
                "{},{},{},{},{},{},{},{},{:#x},{},{},{},{}",
                r.detected_at_progress,
                r.detected_at_cycles,
                r.safe_epoch,
                r.restored_records,
                r.recomputed_values,
                r.recompute_alu_ops,
                r.stall_cycles,
                r.waste_cycles,
                r.victim_mask,
                r.shadow_divergence,
                r.replay_retries,
                r.generation_fallbacks,
                u8::from(r.degraded_entered)
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn interval(records: u64, omitted: u64) -> IntervalRecord {
        IntervalRecord {
            epoch: 0,
            progress: 0,
            records,
            omitted,
            bytes: records * 16,
            baseline_bytes: (records + omitted) * 16,
            stall_cycles: 0,
            lines_flushed: 0,
        }
    }

    #[test]
    fn reduction_percentages() {
        let i = interval(75, 25);
        assert!((i.reduction_pct() - 25.0).abs() < 1e-9);

        let r = BerReport {
            intervals: vec![interval(75, 25), interval(50, 50)],
            ..Default::default()
        };
        // total baseline 200 records, total actual 125 → 37.5 %
        assert!((r.overall_reduction_pct() - 37.5).abs() < 1e-9);
        // both intervals have equal baseline (100 records); max_by_key
        // keeps the last of equals → the 50 % interval.
        assert!((r.max_interval_reduction_pct() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn csv_roundtrip_fields() {
        let r = BerReport {
            intervals: vec![interval(75, 25)],
            recoveries: vec![RecoveryRecord {
                detected_at_progress: 100,
                detected_at_cycles: 200,
                safe_epoch: 1,
                restored_records: 3,
                recomputed_values: 4,
                recompute_alu_ops: 12,
                stall_cycles: 50,
                waste_cycles: 80,
                victim_mask: 0b11,
                shadow_divergence: 0,
                replay_retries: 2,
                generation_fallbacks: 1,
                degraded_entered: true,
            }],
            ..Default::default()
        };
        let ic = r.intervals_csv();
        assert!(ic.lines().count() == 2);
        assert!(ic.contains("75,25"));
        assert!(ic.contains("25.0000"));
        let rc = r.recoveries_csv();
        assert!(rc.contains("100,200,1,3,4,12,50,80,0x3,0,2,1,1"));
    }

    #[test]
    fn empty_report_is_zero() {
        let r = BerReport::default();
        assert_eq!(r.overall_reduction_pct(), 0.0);
        assert_eq!(r.max_interval_reduction_pct(), 0.0);
    }
}
