//! Memory-subsystem event counters consumed by the energy model.

/// Event counters. Every field is a monotonically increasing count; the
/// `acr-energy` crate multiplies them by per-event energies.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemStats {
    /// L1-D accesses that hit.
    pub l1d_hits: u64,
    /// L1-D misses.
    pub l1d_misses: u64,
    /// L2 accesses that hit (after an L1-D miss).
    pub l2_hits: u64,
    /// L2 misses (requests that left the tile).
    pub l2_misses: u64,
    /// Lines read from DRAM (demand fills).
    pub dram_line_reads: u64,
    /// Lines written to DRAM (dirty evictions + checkpoint flushes).
    pub dram_line_writes: u64,
    /// Cache-to-cache transfers satisfied by a remote cache.
    pub c2c_transfers: u64,
    /// Invalidation messages delivered to remote caches.
    pub invalidations: u64,
    /// Coherence protocol messages (requests, acks, data headers).
    pub coherence_messages: u64,
    /// Log records written to memory (checkpointing).
    pub log_record_writes: u64,
    /// Log records read back from memory (recovery roll-back).
    pub log_record_reads: u64,
    /// Words written to memory while restoring old values / recomputed
    /// values during recovery.
    pub recovery_word_writes: u64,
    /// Next-line prefetches issued into L2: always 0, since no prefetcher
    /// is modelled. Kept so `mem.prefetches` and report renderings keep
    /// their shape.
    pub prefetches: u64,
}

impl MemStats {
    /// Field-wise sum.
    pub fn add(&mut self, other: &MemStats) {
        self.l1d_hits += other.l1d_hits;
        self.l1d_misses += other.l1d_misses;
        self.l2_hits += other.l2_hits;
        self.l2_misses += other.l2_misses;
        self.dram_line_reads += other.dram_line_reads;
        self.dram_line_writes += other.dram_line_writes;
        self.c2c_transfers += other.c2c_transfers;
        self.invalidations += other.invalidations;
        self.coherence_messages += other.coherence_messages;
        self.log_record_writes += other.log_record_writes;
        self.log_record_reads += other.log_record_reads;
        self.recovery_word_writes += other.recovery_word_writes;
        self.prefetches += other.prefetches;
    }

    /// Total data-cache accesses.
    pub fn l1d_accesses(&self) -> u64 {
        self.l1d_hits + self.l1d_misses
    }

    /// Publishes every counter into `reg` under `mem.*` keys (all values
    /// are event counts):
    ///
    /// * `mem.l1d.hits` / `mem.l1d.misses` — L1-D lookups (accesses);
    /// * `mem.l2.hits` / `mem.l2.misses` — L2 lookups (accesses);
    /// * `mem.dram.line_reads` / `mem.dram.line_writes` — DRAM traffic
    ///   (64-byte lines);
    /// * `mem.coh.c2c` / `mem.coh.invalidations` / `mem.coh.messages` —
    ///   coherence events (messages);
    /// * `mem.log.record_writes` / `mem.log.record_reads` — checkpoint log
    ///   records (16-byte records);
    /// * `mem.recovery.word_writes` — words rewritten during recovery;
    /// * `mem.prefetches` — next-line prefetches issued (always 0).
    pub fn metrics(&self, reg: &mut acr_trace::MetricsRegistry) {
        reg.set("mem.l1d.hits", self.l1d_hits);
        reg.set("mem.l1d.misses", self.l1d_misses);
        reg.set("mem.l2.hits", self.l2_hits);
        reg.set("mem.l2.misses", self.l2_misses);
        reg.set("mem.dram.line_reads", self.dram_line_reads);
        reg.set("mem.dram.line_writes", self.dram_line_writes);
        reg.set("mem.coh.c2c", self.c2c_transfers);
        reg.set("mem.coh.invalidations", self.invalidations);
        reg.set("mem.coh.messages", self.coherence_messages);
        reg.set("mem.log.record_writes", self.log_record_writes);
        reg.set("mem.log.record_reads", self.log_record_reads);
        reg.set("mem.recovery.word_writes", self.recovery_word_writes);
        reg.set("mem.prefetches", self.prefetches);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_is_fieldwise() {
        let mut a = MemStats {
            l1d_hits: 1,
            dram_line_writes: 2,
            ..Default::default()
        };
        let b = MemStats {
            l1d_hits: 10,
            l2_misses: 5,
            ..Default::default()
        };
        a.add(&b);
        assert_eq!(a.l1d_hits, 11);
        assert_eq!(a.l2_misses, 5);
        assert_eq!(a.dram_line_writes, 2);
        assert_eq!(a.l1d_accesses(), 11);
    }
}
