//! The omission-decision ledger: why each checkpointed word was logged
//! or omitted.
//!
//! Every first update in an interval forces exactly one decision in the
//! engine's store hook — omit the old value (it is recomputable through
//! the `AddrMap`) or write a log record. The ledger attributes each
//! decision to a reason code, aggregated three ways:
//!
//! * per reason ([`DecisionLedger::total`]),
//! * per [`RANGE_BYTES`]-sized address range ([`DecisionLedger::ranges`]),
//! * per Slice for the omissions ([`DecisionLedger::per_slice`]), joined
//!   during recovery with the per-Slice replay cost
//!   ([`DecisionLedger::replays`]).
//!
//! **Conservation invariant**: the per-reason counts sum exactly to the
//! number of first-update decisions taken — equal to the log
//! controller's lifetime logged + omitted totals. (In degraded
//! full-logging mode the engine skips the omission lookup and records
//! `logged:degraded` directly, so the sum can exceed the omission-lookup
//! count; outside degraded windows the two coincide.) A word is never
//! double-counted and never dropped. Recording is purely observational
//! (no simulated cycles), and every aggregate is keyed through
//! `BTreeMap`s so exports are deterministic.

use std::collections::BTreeMap;

use acr_isa::SliceId;
use acr_mem::WordAddr;

/// Bytes per ledger address range (one aggregation bucket).
pub const RANGE_BYTES: u64 = 4096;

/// Why a first update was omitted from — or kept in — the checkpoint log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OmitReason {
    /// Omitted: a live `AddrMap` association recomputes the old value.
    OmittedSlice,
    /// Logged: the producing store was never covered by a Slice (no
    /// `ASSOC-ADDR` reached the `AddrMap` for this value).
    LoggedNoSlice,
    /// Logged: the compiler extracted a Slice for the producing store but
    /// the length threshold filter rejected it.
    LoggedSliceTooLong,
    /// Logged: an association existed but was evicted when the owning
    /// core's `AddrMap` ran out of capacity.
    LoggedAddrmapEvicted,
    /// Logged: the association was invalidated by a later uncovered store
    /// (the old value is no longer any Slice's output).
    LoggedNotRecomputable,
    /// Logged: the engine was in degraded full-logging mode after a
    /// recovery escalation — omission is suspended until the next clean
    /// checkpoint commits, so the word was logged regardless of whether a
    /// Slice could have recomputed it.
    LoggedDegraded,
}

/// Number of distinct [`OmitReason`] codes (array width of the ledger's
/// per-reason aggregates).
pub const NUM_REASONS: usize = 6;

impl OmitReason {
    /// All reasons, in rendering order.
    pub const ALL: [OmitReason; NUM_REASONS] = [
        OmitReason::OmittedSlice,
        OmitReason::LoggedNoSlice,
        OmitReason::LoggedSliceTooLong,
        OmitReason::LoggedAddrmapEvicted,
        OmitReason::LoggedNotRecomputable,
        OmitReason::LoggedDegraded,
    ];

    /// The stable reason code used in exports.
    pub fn code(self) -> &'static str {
        match self {
            OmitReason::OmittedSlice => "omitted:slice",
            OmitReason::LoggedNoSlice => "logged:no-slice",
            OmitReason::LoggedSliceTooLong => "logged:slice-too-long",
            OmitReason::LoggedAddrmapEvicted => "logged:addrmap-evicted",
            OmitReason::LoggedNotRecomputable => "logged:not-recomputable",
            OmitReason::LoggedDegraded => "logged:degraded",
        }
    }

    fn idx(self) -> usize {
        match self {
            OmitReason::OmittedSlice => 0,
            OmitReason::LoggedNoSlice => 1,
            OmitReason::LoggedSliceTooLong => 2,
            OmitReason::LoggedAddrmapEvicted => 3,
            OmitReason::LoggedNotRecomputable => 4,
            OmitReason::LoggedDegraded => 5,
        }
    }
}

/// Accumulated recovery replay cost of one Slice.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayCost {
    /// Times the Slice was re-executed during recoveries.
    pub replays: u64,
    /// Cycles those re-executions occupied on their cores.
    pub cycles: u64,
    /// ALU operations executed (energy accounting).
    pub alu_ops: u64,
    /// Operand-buffer reads (energy accounting).
    pub opbuf_reads: u64,
}

/// Per-reason / per-range / per-Slice aggregation of omission decisions —
/// see the module-level notes.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DecisionLedger {
    totals: [u64; NUM_REASONS],
    ranges: BTreeMap<u64, [u64; NUM_REASONS]>,
    per_slice: BTreeMap<u32, u64>,
    replays: BTreeMap<u32, ReplayCost>,
}

impl DecisionLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one first-update decision on `addr`. `slice` is the
    /// association behind an [`OmitReason::OmittedSlice`] decision.
    pub fn record(&mut self, addr: WordAddr, reason: OmitReason, slice: Option<SliceId>) {
        let i = reason.idx();
        self.totals[i] += 1;
        self.ranges.entry(addr.byte() / RANGE_BYTES).or_default()[i] += 1;
        if let Some(s) = slice {
            *self.per_slice.entry(s.0).or_default() += 1;
        }
    }

    /// Records one Slice re-execution during recovery.
    pub fn record_replay(&mut self, slice: SliceId, cycles: u64, alu_ops: u64, opbuf_reads: u64) {
        let c = self.replays.entry(slice.0).or_default();
        c.replays += 1;
        c.cycles += cycles;
        c.alu_ops += alu_ops;
        c.opbuf_reads += opbuf_reads;
    }

    /// Decisions recorded for `reason`.
    pub fn total(&self, reason: OmitReason) -> u64 {
        self.totals[reason.idx()]
    }

    /// All first-update decisions recorded (sum over every reason).
    pub fn total_decisions(&self) -> u64 {
        self.totals.iter().sum()
    }

    /// Decisions that wrote a log record.
    pub fn total_logged(&self) -> u64 {
        self.total_decisions() - self.total(OmitReason::OmittedSlice)
    }

    /// Decisions that omitted the old value.
    pub fn total_omitted(&self) -> u64 {
        self.total(OmitReason::OmittedSlice)
    }

    /// Per-range decision counts in ascending address order: the range's
    /// starting byte address and its counts indexed like
    /// [`OmitReason::ALL`].
    pub fn ranges(&self) -> impl Iterator<Item = (u64, [u64; NUM_REASONS])> + '_ {
        self.ranges.iter().map(|(k, v)| (k * RANGE_BYTES, *v))
    }

    /// Omission counts per Slice, ascending by Slice id.
    pub fn per_slice(&self) -> impl Iterator<Item = (SliceId, u64)> + '_ {
        self.per_slice.iter().map(|(s, n)| (SliceId(*s), *n))
    }

    /// Recovery replay costs per Slice, ascending by Slice id.
    pub fn replays(&self) -> impl Iterator<Item = (SliceId, ReplayCost)> + '_ {
        self.replays.iter().map(|(s, c)| (SliceId(*s), *c))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wa(b: u64) -> WordAddr {
        WordAddr::new(b)
    }

    #[test]
    fn totals_and_ranges_conserve_decisions() {
        let mut l = DecisionLedger::new();
        l.record(wa(0), OmitReason::OmittedSlice, Some(SliceId(3)));
        l.record(wa(8), OmitReason::LoggedNoSlice, None);
        l.record(wa(4096), OmitReason::LoggedNoSlice, None);
        l.record(wa(4104), OmitReason::LoggedAddrmapEvicted, None);
        assert_eq!(l.total_decisions(), 4);
        assert_eq!(l.total_omitted(), 1);
        assert_eq!(l.total_logged(), 3);
        let range_sum: u64 = l.ranges().map(|(_, c)| c.iter().sum::<u64>()).sum();
        assert_eq!(range_sum, l.total_decisions());
        let ranges: Vec<u64> = l.ranges().map(|(base, _)| base).collect();
        assert_eq!(ranges, vec![0, 4096]);
        assert_eq!(l.per_slice().collect::<Vec<_>>(), vec![(SliceId(3), 1)]);
    }

    #[test]
    fn replay_costs_accumulate_per_slice() {
        let mut l = DecisionLedger::new();
        l.record_replay(SliceId(2), 5, 3, 2);
        l.record_replay(SliceId(2), 5, 3, 2);
        l.record_replay(SliceId(7), 1, 1, 0);
        let all: Vec<_> = l.replays().collect();
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].0, SliceId(2));
        assert_eq!(all[0].1.replays, 2);
        assert_eq!(all[0].1.cycles, 10);
        assert_eq!(all[1].1.alu_ops, 1);
    }
}
