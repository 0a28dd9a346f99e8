//! The in-memory checkpoint log.
//!
//! Log-based incremental in-memory checkpointing (Section II-A, after
//! ReVive/Rebound): upon the **first** update of a memory word within a
//! checkpoint interval, a record of the old value goes into a log stored in
//! memory; this log *is* the checkpoint (together with the register-file
//! snapshot kept by `acr-ckpt`). A per-word *logged* bit — the paper's
//! `log` bit, at word granularity per `DESIGN.md` — marks words already
//! handled in the current interval and is cleared when a new checkpoint is
//! established.
//!
//! ACR's hook is [`LogController::omit_value`]: the checkpoint handler sets
//! the logged bit *without* writing a record, omitting the (recomputable)
//! old value from the checkpoint and leaving behind an [`OmittedRecord`]
//! that recovery resolves through the `AddrMap`.

use std::collections::VecDeque;

use acr_trace::Fnv1a;

use crate::addr::WordAddr;

/// Bytes per log record: 8 B address + 8 B old value.
pub const LOG_RECORD_BYTES: u64 = 16;

/// Per-record integrity checksum: FNV-1a over the record's address, old
/// value and owning core. Stored alongside the record at log/omit time so
/// recovery can detect a torn or corrupted entry before applying it. The
/// checksum is observational — it models ECC/CRC the memory controller
/// would compute in-line and adds no simulated cost.
#[inline]
pub fn record_check(addr: WordAddr, old_value: u64, core: u32) -> u64 {
    let mut h = Fnv1a::new();
    h.write_u64(addr.byte());
    h.write_u64(old_value);
    h.write(&core.to_le_bytes());
    h.finish()
}

/// An old-value record: `addr` held `old_value` at the start of the
/// record's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogRecord {
    /// The logged word.
    pub addr: WordAddr,
    /// Value at the epoch's opening checkpoint.
    pub old_value: u64,
    /// Core whose store triggered the first update (cost attribution under
    /// coordinated local checkpointing).
    pub core: u32,
    /// Integrity checksum over `(addr, old_value, core)`, set at log time.
    pub check: u64,
}

impl LogRecord {
    /// Whether the record still matches its stored checksum.
    pub fn verify(&self) -> bool {
        self.check == record_check(self.addr, self.old_value, self.core)
    }
}

/// A first-update whose old value ACR omitted from the log because it is
/// recomputable. Recovery resolves it through the `AddrMap`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OmittedRecord {
    /// The omitted word.
    pub addr: WordAddr,
    /// Core whose `AddrMap` holds the association (Slices are thread-local,
    /// Section III-A).
    pub core: u32,
    /// Integrity checksum over the *omitted* old value, set at omit time.
    /// The value itself is not stored (that is the whole point of
    /// omission), but its checksum lets recovery verify that Slice replay
    /// recomputed the right word without keeping the word around.
    pub check: u64,
}

impl OmittedRecord {
    /// Whether `recomputed` matches the old value whose checksum was
    /// captured when the omission was granted.
    pub fn verify_recomputed(&self, recomputed: u64) -> bool {
        self.check == record_check(self.addr, recomputed, self.core)
    }
}

/// The log of one checkpoint interval.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LogEpoch {
    /// Epoch index: epoch `k` spans checkpoint `k` → checkpoint `k+1`.
    pub index: u64,
    /// Old values actually written to the log.
    pub records: Vec<LogRecord>,
    /// First updates omitted by ACR.
    pub omitted: Vec<OmittedRecord>,
}

impl LogEpoch {
    fn new(index: u64) -> Self {
        LogEpoch {
            index,
            records: Vec::new(),
            omitted: Vec::new(),
        }
    }

    /// Bytes occupied by this epoch's log records (the checkpointed data
    /// volume ACR reduces).
    pub fn bytes(&self) -> u64 {
        self.records.len() as u64 * LOG_RECORD_BYTES
    }

    /// Bytes the epoch would have occupied had nothing been omitted — the
    /// non-amnesic baseline for reduction percentages.
    pub fn baseline_bytes(&self) -> u64 {
        (self.records.len() + self.omitted.len()) as u64 * LOG_RECORD_BYTES
    }
}

/// Memory-controller-resident log machinery: the per-word logged bits for
/// the current interval plus the retained epochs.
///
/// ```
/// use acr_mem::{LogController, WordAddr};
///
/// let mut log = LogController::new(1024);
/// let addr = WordAddr::new(64);
/// assert!(!log.is_logged(addr));
/// log.log_value(addr, 42, 0);      // first update: old value recorded
/// assert!(log.is_logged(addr));    // later updates in the epoch skip it
/// let sealed = log.seal_epoch();   // checkpoint established
/// assert_eq!(sealed.records.len(), 1);
/// assert!(!log.is_logged(addr));   // new epoch, bit cleared
/// ```
#[derive(Debug, Clone)]
pub struct LogController {
    /// Per-word logged bits for the *current* epoch, packed 64 words per u64.
    bits: Vec<u64>,
    current: LogEpoch,
    /// Completed epochs, most recent last. At most `retained` are kept —
    /// the paper shows two most recent checkpoints suffice when detection
    /// latency ≤ period; torn-recovery resilience retains more so a
    /// corrupted generation can fall back to an older one.
    completed: VecDeque<LogEpoch>,
    /// Completed epochs to retain (defaults to [`LogController::RETAINED`]).
    retained: usize,
    /// Lifetime count of log records written (records; monotonic — never
    /// reset by seal or rollback). The independent tally the
    /// omission-decision ledger's conservation invariant checks against.
    total_logged: u64,
    /// Lifetime count of omissions granted (records; monotonic).
    total_omitted: u64,
}

impl LogController {
    /// Completed epochs retained (Section II-A: two most recent
    /// checkpoints).
    pub const RETAINED: usize = 2;

    /// Creates a controller covering `num_words` memory words, starting in
    /// epoch 0.
    pub fn new(num_words: usize) -> Self {
        Self::with_retention(num_words, Self::RETAINED)
    }

    /// Creates a controller retaining the `retained` most recent completed
    /// epochs instead of the default [`LogController::RETAINED`]. Multi-
    /// generation recovery needs the logs of every restorable checkpoint
    /// generation still on hand.
    ///
    /// # Panics
    ///
    /// Panics if `retained` is zero — recovery always needs at least the
    /// most recent completed epoch.
    pub fn with_retention(num_words: usize, retained: usize) -> Self {
        assert!(retained >= 1, "must retain at least one completed epoch");
        LogController {
            bits: vec![0; num_words.div_ceil(64)],
            current: LogEpoch::new(0),
            completed: VecDeque::with_capacity(retained + 1),
            retained,
            total_logged: 0,
            total_omitted: 0,
        }
    }

    /// Completed epochs this controller retains.
    pub fn retention(&self) -> usize {
        self.retained
    }

    /// Lifetime count of log records written, across every epoch ever
    /// opened (monotonic; unaffected by seal, pruning or rollback).
    pub fn lifetime_logged(&self) -> u64 {
        self.total_logged
    }

    /// Lifetime count of omissions granted (monotonic).
    pub fn lifetime_omitted(&self) -> u64 {
        self.total_omitted
    }

    /// The in-progress epoch.
    #[inline]
    pub fn current(&self) -> &LogEpoch {
        &self.current
    }

    /// Completed retained epochs, oldest first.
    pub fn completed(&self) -> impl Iterator<Item = &LogEpoch> {
        self.completed.iter()
    }

    /// Looks up a retained epoch (completed or current) by index.
    pub fn epoch(&self, index: u64) -> Option<&LogEpoch> {
        if self.current.index == index {
            Some(&self.current)
        } else {
            self.completed.iter().find(|e| e.index == index)
        }
    }

    /// Whether `addr` has already been handled (logged or omitted) in the
    /// current epoch — the paper's `log` bit.
    #[inline]
    pub fn is_logged(&self, addr: WordAddr) -> bool {
        let i = addr.word_index();
        self.bits[i / 64] >> (i % 64) & 1 == 1
    }

    #[inline]
    fn set_bit(&mut self, addr: WordAddr) {
        let i = addr.word_index();
        self.bits[i / 64] |= 1 << (i % 64);
    }

    #[inline]
    fn clear_bit(&mut self, addr: WordAddr) {
        let i = addr.word_index();
        self.bits[i / 64] &= !(1 << (i % 64));
    }

    /// Records the old value of a first update.
    ///
    /// # Panics
    ///
    /// Panics (debug) if the word was already handled this epoch; callers
    /// must check [`LogController::is_logged`] first.
    #[inline]
    pub fn log_value(&mut self, addr: WordAddr, old_value: u64, core: u32) {
        debug_assert!(!self.is_logged(addr), "double log of {addr}");
        self.set_bit(addr);
        self.total_logged += 1;
        self.current.records.push(LogRecord {
            addr,
            old_value,
            core,
            check: record_check(addr, old_value, core),
        });
    }

    /// ACR path: marks the first update handled *without* logging the old
    /// value (it is recomputable via core `core`'s `AddrMap`). The old
    /// value is still passed in so its checksum can be captured for
    /// recovery-time verification of the recomputed word; only the
    /// checksum is retained.
    #[inline]
    pub fn omit_value(&mut self, addr: WordAddr, old_value: u64, core: u32) {
        debug_assert!(!self.is_logged(addr), "double log of {addr}");
        self.set_bit(addr);
        self.total_omitted += 1;
        self.current.omitted.push(OmittedRecord {
            addr,
            core,
            check: record_check(addr, old_value, core),
        });
    }

    /// Establishes a checkpoint: seals the current epoch, clears the logged
    /// bits and opens the next epoch. Returns a reference to the epoch just
    /// sealed.
    pub fn seal_epoch(&mut self) -> &LogEpoch {
        let next = LogEpoch::new(self.current.index + 1);
        let sealed = std::mem::replace(&mut self.current, next);
        self.completed.push_back(sealed);
        while self.completed.len() > self.retained {
            self.completed.pop_front();
        }
        self.bits.fill(0);
        self.completed.back().expect("just pushed")
    }

    /// Rolls the controller back for a recovery that restored checkpoint
    /// `safe_epoch`: discards the current epoch and any completed epochs
    /// with `index >= safe_epoch`, clears the logged bits and reopens
    /// `safe_epoch` as the current epoch. Returns the epochs discarded,
    /// newest first — exactly the logs recovery must apply.
    pub fn rollback_to(&mut self, safe_epoch: u64) -> Vec<LogEpoch> {
        let mut undone = Vec::new();
        let cur = std::mem::replace(&mut self.current, LogEpoch::new(safe_epoch));
        assert!(
            cur.index >= safe_epoch,
            "cannot roll forward: current epoch {} < safe {}",
            cur.index,
            safe_epoch
        );
        undone.push(cur);
        while let Some(back) = self.completed.back() {
            if back.index >= safe_epoch {
                undone.push(self.completed.pop_back().expect("back exists"));
            } else {
                break;
            }
        }
        self.bits.fill(0);
        undone
    }

    /// Partial rollback for coordinated *local* recovery: extracts, from
    /// the current epoch and every completed epoch with `index >=
    /// safe_epoch`, the records and omissions attributed to the cores in
    /// `victim_mask`, clearing the logged bits of exactly those words. The
    /// epoch structure (indices, non-victim records) is preserved — the
    /// non-victim cores keep executing in the current epoch. Returns the
    /// extracted per-epoch subsets, newest first.
    pub fn rollback_victims(&mut self, safe_epoch: u64, victim_mask: u64) -> Vec<LogEpoch> {
        let is_victim = |core: u32| victim_mask >> core & 1 == 1;
        let mut out = Vec::new();
        let mut indices: Vec<u64> = self
            .completed
            .iter()
            .map(|e| e.index)
            .filter(|&i| i >= safe_epoch)
            .collect();
        indices.push(self.current.index);
        indices.sort_unstable();
        for &idx in indices.iter().rev() {
            let epoch = if self.current.index == idx {
                &mut self.current
            } else {
                self.completed
                    .iter_mut()
                    .find(|e| e.index == idx)
                    .expect("index came from the deque")
            };
            let mut sub = LogEpoch::new(idx);
            let mut keep_r = Vec::with_capacity(epoch.records.len());
            for r in epoch.records.drain(..) {
                if is_victim(r.core) {
                    sub.records.push(r);
                } else {
                    keep_r.push(r);
                }
            }
            epoch.records = keep_r;
            let mut keep_o = Vec::with_capacity(epoch.omitted.len());
            for o in epoch.omitted.drain(..) {
                if is_victim(o.core) {
                    sub.omitted.push(o);
                } else {
                    keep_o.push(o);
                }
            }
            epoch.omitted = keep_o;
            out.push(sub);
        }
        // Clear logged bits for the extracted current-epoch words so the
        // victims' re-execution re-logs them.
        let current_words: Vec<WordAddr> = out
            .iter()
            .filter(|e| e.index == self.current.index)
            .flat_map(|e| {
                e.records
                    .iter()
                    .map(|r| r.addr)
                    .chain(e.omitted.iter().map(|o| o.addr))
            })
            .collect();
        for w in current_words {
            self.clear_bit(w);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wa(i: u64) -> WordAddr {
        WordAddr::new(i * 8)
    }

    #[test]
    fn first_update_logged_once() {
        let mut lc = LogController::new(1024);
        assert!(!lc.is_logged(wa(5)));
        lc.log_value(wa(5), 42, 0);
        assert!(lc.is_logged(wa(5)));
        assert_eq!(lc.current().records.len(), 1);
        assert_eq!(lc.current().bytes(), LOG_RECORD_BYTES);
    }

    #[test]
    fn omitted_counts_in_baseline_not_bytes() {
        let mut lc = LogController::new(1024);
        lc.log_value(wa(1), 10, 0);
        lc.omit_value(wa(2), 20, 0);
        let e = lc.current();
        assert_eq!(e.bytes(), LOG_RECORD_BYTES);
        assert_eq!(e.baseline_bytes(), 2 * LOG_RECORD_BYTES);
        assert_eq!((e.records.len(), e.omitted.len()), (1, 1));
    }

    #[test]
    fn seal_clears_bits_and_retains_two() {
        let mut lc = LogController::new(1024);
        lc.log_value(wa(3), 1, 0);
        lc.seal_epoch();
        assert!(!lc.is_logged(wa(3)));
        assert_eq!(lc.current().index, 1);
        lc.log_value(wa(3), 2, 0); // re-loggable in new epoch
        lc.seal_epoch();
        lc.seal_epoch();
        let idx: Vec<u64> = lc.completed().map(|e| e.index).collect();
        assert_eq!(idx, vec![1, 2]);
        assert!(lc.epoch(0).is_none());
        assert!(lc.epoch(3).is_some()); // current
    }

    #[test]
    fn rollback_returns_undone_epochs_newest_first() {
        let mut lc = LogController::new(1024);
        lc.log_value(wa(1), 11, 0); // epoch 0
        lc.seal_epoch();
        lc.log_value(wa(2), 22, 1); // epoch 1
        lc.seal_epoch();
        lc.log_value(wa(3), 33, 0); // epoch 2 (current)

        // Error detected in epoch 2; safe checkpoint is c_1, so epochs 2
        // and 1 are undone.
        let undone = lc.rollback_to(1);
        assert_eq!(undone.len(), 2);
        assert_eq!(undone[0].index, 2);
        assert_eq!(undone[1].index, 1);
        assert_eq!(lc.current().index, 1);
        assert!(!lc.is_logged(wa(3)));
        // Epoch 0 survives.
        assert_eq!(lc.completed().count(), 1);
    }

    #[test]
    fn rollback_victims_extracts_only_victim_records() {
        let mut lc = LogController::new(1024);
        lc.log_value(wa(1), 11, 0); // epoch 0, core 0
        lc.log_value(wa(2), 22, 1); // epoch 0, core 1
        lc.seal_epoch();
        lc.log_value(wa(3), 33, 0); // epoch 1, core 0
        lc.omit_value(wa(4), 44, 1); // epoch 1, core 1 (omitted)

        // Victim = core 1 only, safe epoch = 0: extract core 1's entries
        // from epochs >= 0; core 0's stay.
        let undone = lc.rollback_victims(0, 0b10);
        let all_records: Vec<_> = undone.iter().flat_map(|e| e.records.iter()).collect();
        let all_omitted: Vec<_> = undone.iter().flat_map(|e| e.omitted.iter()).collect();
        assert_eq!(all_records.len(), 1);
        assert_eq!(all_records[0].addr, wa(2));
        assert_eq!(all_omitted.len(), 1);
        assert_eq!(all_omitted[0].addr, wa(4));
        // Non-victim entries preserved, epoch indices unchanged.
        assert_eq!(lc.current().index, 1);
        assert_eq!(lc.current().records.len(), 1);
        assert_eq!(lc.current().records[0].addr, wa(3));
        // Victim's current-epoch word is re-loggable; non-victim's is not.
        assert!(!lc.is_logged(wa(4)));
        assert!(lc.is_logged(wa(3)));
    }

    #[test]
    fn rollback_victims_newest_first() {
        let mut lc = LogController::new(1024);
        lc.log_value(wa(1), 1, 0);
        lc.seal_epoch();
        lc.log_value(wa(2), 2, 0);
        let undone = lc.rollback_victims(0, 0b1);
        let idx: Vec<u64> = undone.iter().map(|e| e.index).collect();
        assert_eq!(idx, vec![1, 0]);
    }

    #[test]
    fn lifetime_totals_survive_seal_and_rollback() {
        let mut lc = LogController::new(1024);
        lc.log_value(wa(1), 11, 0);
        lc.omit_value(wa(2), 22, 0);
        lc.seal_epoch();
        lc.log_value(wa(1), 12, 0);
        let _ = lc.rollback_to(0);
        // Re-execution after rollback re-logs the word: counted again.
        lc.log_value(wa(1), 11, 0);
        assert_eq!(lc.lifetime_logged(), 3);
        assert_eq!(lc.lifetime_omitted(), 1);
    }

    #[test]
    fn record_checksums_verify_and_detect_corruption() {
        let mut lc = LogController::new(1024);
        lc.log_value(wa(7), 0xdead_beef, 1);
        let rec = lc.current().records[0];
        assert!(rec.verify());
        let torn = LogRecord {
            old_value: rec.old_value ^ (1 << 17),
            ..rec
        };
        assert!(!torn.verify());
    }

    #[test]
    fn omitted_checksum_verifies_recomputed_value() {
        let mut lc = LogController::new(1024);
        lc.omit_value(wa(9), 0x1234, 0);
        let om = lc.current().omitted[0];
        assert!(om.verify_recomputed(0x1234));
        assert!(!om.verify_recomputed(0x1235)); // wrong replay output
    }

    #[test]
    fn with_retention_keeps_extra_generations() {
        let mut lc = LogController::with_retention(1024, 4);
        assert_eq!(lc.retention(), 4);
        for v in 0..6 {
            lc.log_value(wa(1), v, 0);
            lc.seal_epoch();
        }
        let idx: Vec<u64> = lc.completed().map(|e| e.index).collect();
        assert_eq!(idx, vec![2, 3, 4, 5]);
    }

    #[test]
    #[should_panic(expected = "at least one completed epoch")]
    fn zero_retention_rejected() {
        let _ = LogController::with_retention(64, 0);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double log")]
    fn double_log_panics_in_debug() {
        let mut lc = LogController::new(64);
        lc.log_value(wa(0), 1, 0);
        lc.log_value(wa(0), 2, 0);
    }
}
