//! [`MemSystem`] — the memory-subsystem facade the core model talks to.

use crate::addr::{LineAddr, WordAddr, LINE_BYTES};
use crate::cache::{Cache, CacheConfig, LookupResult};
use crate::dir::{DirState, Directory};
use crate::dram::{DramConfig, MemImage};
use crate::sharing::SharingTracker;
use crate::stats::MemStats;
use acr_trace::{SharedSink, TraceEvent, TRACK_MEM};

/// Identifier of a core (== thread in this study).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct CoreId(pub u32);

impl CoreId {
    /// Core id as an index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Kind of a data access.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessKind {
    /// A load.
    Load,
    /// A store.
    Store,
}

/// Configuration of the memory subsystem (defaults reproduce Table I).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemConfig {
    /// Per-core L1-D.
    pub l1d: CacheConfig,
    /// Per-core (private) L2.
    pub l2: CacheConfig,
    /// DRAM latency/bandwidth.
    pub dram: DramConfig,
    /// Extra cycles charged when a write must invalidate remote copies.
    pub inv_latency: u64,
    /// Latency of a cache-to-cache transfer from a remote cache.
    pub c2c_latency: u64,
}

impl Default for MemConfig {
    /// Table I at 1.09 GHz: L1-D 32 KB 8-way 3.66 ns (≈4 cycles), L2
    /// 512 KB 8-way 24.77 ns (≈27 cycles), DRAM 120 ns (≈131 cycles),
    /// 7.6 GB/s per controller (≈6.97 B/cycle), 1 controller per 4 cores.
    fn default() -> Self {
        MemConfig {
            l1d: CacheConfig {
                size_bytes: 32 * 1024,
                ways: 8,
                latency_cycles: 4,
            },
            l2: CacheConfig {
                size_bytes: 512 * 1024,
                ways: 8,
                latency_cycles: 27,
            },
            dram: DramConfig {
                latency_cycles: 131,
                bytes_per_cycle_per_ctrl: 6.97,
                cores_per_ctrl: 4,
            },
            inv_latency: 20,
            c2c_latency: 60,
        }
    }
}

/// Result of a coordinated checkpoint flush.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlushStats {
    /// Dirty lines written back.
    pub lines_flushed: u64,
    /// Stall cycles: DRAM latency plus the drain time of the most-loaded
    /// memory controller (flushes are bandwidth-bound; cores are stalled).
    pub stall_cycles: u64,
}

/// The full memory subsystem: per-core L1-D/L2, directory, DRAM image,
/// sharing tracker and statistics.
///
/// ```
/// use acr_mem::{CoreId, MemConfig, MemSystem, WordAddr};
///
/// let mut mem = MemSystem::new(MemConfig::default(), 2, 1 << 20);
/// let (old, _miss_latency) = mem.store(CoreId(0), WordAddr::new(64), 7);
/// assert_eq!(old, 0);
/// let (value, hit_latency) = mem.load(CoreId(0), WordAddr::new(64));
/// assert_eq!(value, 7);
/// assert_eq!(hit_latency, mem.config().l1d.latency_cycles);
/// ```
///
/// Caches are inclusive (an L1 line is also present in L2); the instruction
/// cache is not modelled as a stateful structure — the kernels' code
/// working sets fit L1-I, so fetch is charged as a fixed per-instruction
/// energy by `acr-energy` (documented in `DESIGN.md`).
#[derive(Debug, Clone)]
pub struct MemSystem {
    cfg: MemConfig,
    num_cores: u32,
    image: MemImage,
    l1d: Vec<Cache>,
    l2: Vec<Cache>,
    dir: Directory,
    stats: MemStats,
    sharing: Option<SharingTracker>,
    trace: SharedSink,
    /// Current simulated cycle, stamped by the core model before each
    /// access so coherence events carry a meaningful timestamp. Purely
    /// observational — never feeds back into latency.
    now: u64,
}

impl MemSystem {
    /// Creates a memory system for `num_cores` cores over `mem_bytes`
    /// bytes of data memory.
    pub fn new(cfg: MemConfig, num_cores: u32, mem_bytes: u64) -> Self {
        let image = MemImage::new(mem_bytes);
        let lines = image.num_lines();
        MemSystem {
            cfg,
            num_cores,
            image,
            l1d: (0..num_cores).map(|_| Cache::new(cfg.l1d)).collect(),
            l2: (0..num_cores).map(|_| Cache::new(cfg.l2)).collect(),
            dir: Directory::new(lines),
            stats: MemStats::default(),
            sharing: None,
            trace: SharedSink::disabled(),
            now: 0,
        }
    }

    /// Installs the trace sink events are emitted into (the simulator
    /// propagates its own sink here so all layers share one stream).
    pub fn set_trace(&mut self, trace: SharedSink) {
        self.trace = trace;
    }

    /// Stamps the current simulated cycle for subsequent event emission.
    #[inline]
    pub fn set_now(&mut self, cycle: u64) {
        self.now = cycle;
    }

    /// The configuration.
    pub fn config(&self) -> &MemConfig {
        &self.cfg
    }

    /// Number of cores.
    pub fn num_cores(&self) -> u32 {
        self.num_cores
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &MemStats {
        &self.stats
    }

    /// Mutable statistics, for the checkpoint engine to charge log traffic.
    pub fn stats_mut(&mut self) -> &mut MemStats {
        &mut self.stats
    }

    /// The functional memory image.
    pub fn image(&self) -> &MemImage {
        &self.image
    }

    /// Mutable functional image (recovery restores old values through it).
    pub fn image_mut(&mut self) -> &mut MemImage {
        &mut self.image
    }

    /// Enables word-granularity sharing tracking (local checkpointing).
    pub fn enable_sharing(&mut self) {
        self.sharing = Some(SharingTracker::new(self.image.num_words(), self.num_cores));
    }

    /// The sharing tracker, if enabled.
    pub fn sharing(&self) -> Option<&SharingTracker> {
        self.sharing.as_ref()
    }

    /// Resets the sharing tracker for a new checkpoint interval.
    pub fn sharing_new_interval(&mut self) {
        if let Some(t) = &mut self.sharing {
            t.new_interval();
        }
    }

    /// Checks whether `addr` lies inside the data image.
    #[inline]
    pub fn in_bounds(&self, addr: WordAddr) -> bool {
        self.image.in_bounds(addr)
    }

    /// Performs a load: functional value plus access latency in cycles.
    #[inline]
    pub fn load(&mut self, core: CoreId, addr: WordAddr) -> (u64, u64) {
        if let Some(t) = &mut self.sharing {
            t.on_read(core.0, addr.word_index());
        }
        let lat = self.access(core, addr.line(), false);
        (self.image.read(addr), lat)
    }

    /// Performs a store: returns the overwritten (old) value plus latency.
    ///
    /// The caller (the checkpoint engine, via the simulator's store hook)
    /// decides whether the old value must be logged.
    #[inline]
    pub fn store(&mut self, core: CoreId, addr: WordAddr, value: u64) -> (u64, u64) {
        if let Some(t) = &mut self.sharing {
            t.on_write(core.0, addr.word_index());
        }
        let lat = self.access(core, addr.line(), true);
        let old = self.image.write(addr, value);
        (old, lat)
    }

    /// Invalidates remote copies so `core` can own `line` exclusively.
    /// Returns `(extra latency, data served by cache-to-cache transfer)`.
    fn acquire_exclusive(&mut self, core: CoreId, line: LineAddr) -> (u64, bool) {
        let state = self.dir.state(line);
        if let DirState::Modified(owner) = state {
            if owner == core.0 {
                return (0, false);
            }
        }
        let mut c2c = false;
        let mut lat = 0;
        match state {
            DirState::Uncached => {}
            DirState::Exclusive(owner) if owner == core.0 => {
                // Silent E -> M upgrade (MESI): no remote copies to touch.
            }
            DirState::Exclusive(owner) => {
                // Invalidate the remote clean copy; no write-back needed.
                let o = owner as usize;
                self.l1d[o].invalidate(line);
                self.l2[o].invalidate(line);
                self.stats.invalidations += 1;
                lat += self.cfg.inv_latency;
            }
            DirState::Shared(mask) => {
                let mut m = mask & !(1u64 << core.0);
                if m != 0 {
                    lat += self.cfg.inv_latency;
                }
                while m != 0 {
                    let j = m.trailing_zeros() as usize;
                    m &= m - 1;
                    // Shared copies are clean by protocol invariant.
                    self.l1d[j].invalidate(line);
                    self.l2[j].invalidate(line);
                    self.stats.invalidations += 1;
                }
            }
            DirState::Modified(owner) => {
                let o = owner as usize;
                self.l1d[o].invalidate(line);
                self.l2[o].invalidate(line);
                self.stats.invalidations += 1;
                self.stats.c2c_transfers += 1;
                lat += self.cfg.c2c_latency;
                c2c = true;
            }
        }
        let out = self.dir.write(core.0, line);
        self.stats.coherence_messages = self.dir.messages();
        debug_assert!(out.invalidations as u64 <= 64);
        if self.trace.detail() && lat > 0 {
            self.trace.emit(
                TraceEvent::instant(
                    if c2c { "mem.c2c" } else { "mem.inv" },
                    "mem",
                    TRACK_MEM,
                    self.now,
                )
                .with_arg("line", line.0)
                .with_arg("core", u64::from(core.0)),
            );
        }
        (lat, c2c)
    }

    /// Obtains a readable copy of `line` for `core`, downgrading a remote
    /// modified owner if necessary. Returns `(extra latency, served by
    /// cache-to-cache)`.
    fn acquire_shared(&mut self, core: CoreId, line: LineAddr) -> (u64, bool) {
        let state = self.dir.state(line);
        let mut lat = 0;
        let mut c2c = false;
        match state {
            DirState::Modified(owner) if owner != core.0 => {
                let o = owner as usize;
                // Owner writes back and keeps a clean copy.
                self.l1d[o].clean(line);
                self.l2[o].clean(line);
                self.stats.dram_line_writes += 1;
                self.stats.c2c_transfers += 1;
                lat += self.cfg.c2c_latency;
                c2c = true;
            }
            DirState::Exclusive(owner) if owner != core.0 => {
                // Clean copy supplied cache-to-cache, no write-back.
                self.stats.c2c_transfers += 1;
                lat += self.cfg.c2c_latency;
                c2c = true;
            }
            _ => {}
        }
        self.dir.read(core.0, line);
        self.stats.coherence_messages = self.dir.messages();
        if self.trace.detail() && c2c {
            self.trace.emit(
                TraceEvent::instant("mem.c2c", "mem", TRACK_MEM, self.now)
                    .with_arg("line", line.0)
                    .with_arg("core", u64::from(core.0)),
            );
        }
        (lat, c2c)
    }

    /// Core access path: L1-D → L2 → directory/DRAM. Returns latency.
    fn access(&mut self, core: CoreId, line: LineAddr, write: bool) -> u64 {
        let c = core.index();
        let mut lat = self.cfg.l1d.latency_cycles;
        let l1 = self.l1d[c].access(line, write);
        if l1 == LookupResult::Hit {
            self.stats.l1d_hits += 1;
            if write {
                lat += self.acquire_exclusive(core, line).0;
            }
            return lat;
        }
        self.stats.l1d_misses += 1;
        lat += self.cfg.l2.latency_cycles;
        let l2 = self.l2[c].access(line, false);
        if l2 == LookupResult::Hit {
            self.stats.l2_hits += 1;
            if write {
                lat += self.acquire_exclusive(core, line).0;
            }
            self.fill_l1(c, line, write);
            return lat;
        }
        self.stats.l2_misses += 1;
        // Off-tile: coherence + memory.
        let (extra, served_c2c) = if write {
            self.acquire_exclusive(core, line)
        } else {
            self.acquire_shared(core, line)
        };
        lat += extra;
        if !served_c2c {
            lat += self.cfg.dram.latency_cycles;
            self.stats.dram_line_reads += 1;
            if self.trace.detail() {
                self.trace.emit(
                    TraceEvent::instant("mem.dram.fill", "mem", TRACK_MEM, self.now)
                        .with_arg("line", line.0)
                        .with_arg("core", u64::from(core.0)),
                );
            }
        }
        self.fill_l2(c, line);
        self.fill_l1(c, line, write);
        lat
    }

    fn fill_l1(&mut self, c: usize, line: LineAddr, dirty: bool) {
        if let Some(ev) = self.l1d[c].fill(line, dirty) {
            if ev.dirty {
                // Write the victim back into L2 (inclusive hierarchy).
                if self.l2[c].contains(ev.line) {
                    self.l2[c].access(ev.line, true);
                } else {
                    // Inclusion was broken by a concurrent L2 eviction;
                    // write back to memory directly.
                    self.stats.dram_line_writes += 1;
                    self.dir.evict(c as u32, ev.line, false);
                }
            }
        }
    }

    fn fill_l2(&mut self, c: usize, line: LineAddr) {
        if let Some(ev) = self.l2[c].fill(line, false) {
            // Back-invalidate L1 (inclusive).
            let l1_dirty = self.l1d[c].invalidate(ev.line).unwrap_or(false);
            if ev.dirty || l1_dirty {
                self.stats.dram_line_writes += 1;
            }
            self.dir.evict(c as u32, ev.line, false);
        }
    }

    /// Checkpoint flush: writes every dirty line of the cores in
    /// `cores_mask` back to memory, keeping clean copies resident
    /// (Rebound-style). Returns the bandwidth-bound stall.
    pub fn flush_dirty(&mut self, cores_mask: u64) -> FlushStats {
        let ctrls = self.cfg.dram.num_controllers(self.num_cores);
        let mut per_ctrl = vec![0u64; ctrls as usize];
        let mut lines = 0u64;
        for c in 0..self.num_cores as usize {
            if cores_mask >> c & 1 == 0 {
                continue;
            }
            let mut dirty = self.l1d[c].dirty_lines();
            dirty.extend(self.l2[c].dirty_lines());
            dirty.sort_unstable();
            dirty.dedup();
            for line in dirty {
                self.l1d[c].clean(line);
                self.l2[c].clean(line);
                self.dir.evict(c as u32, line, true);
                let h = self.cfg.dram.home(line, ctrls);
                per_ctrl[h as usize] += LINE_BYTES;
                lines += 1;
            }
        }
        self.stats.dram_line_writes += lines;
        self.stats.coherence_messages = self.dir.messages();
        let drain = per_ctrl
            .iter()
            .map(|&b| self.cfg.dram.transfer_cycles(b))
            .max()
            .unwrap_or(0);
        let stall = if lines > 0 {
            self.cfg.dram.latency_cycles + drain
        } else {
            0
        };
        if self.trace.enabled() {
            self.trace.emit(
                TraceEvent::span("mem.flush", "mem", TRACK_MEM, self.now, stall)
                    .with_arg("lines", lines)
                    .with_arg("mask", cores_mask),
            );
        }
        FlushStats {
            lines_flushed: lines,
            stall_cycles: stall,
        }
    }

    /// Stall cycles to write `bytes` of log records through the memory
    /// controllers (balanced across controllers, bandwidth-bound).
    pub fn log_write_stall(&self, bytes: u64) -> u64 {
        if bytes == 0 {
            return 0;
        }
        let ctrls = u64::from(self.cfg.dram.num_controllers(self.num_cores));
        self.cfg.dram.transfer_cycles(bytes.div_ceil(ctrls))
    }

    /// Invalidates the caches of the cores in `mask` only (local-scheme
    /// recovery). Directory entries for those cores may go stale; later
    /// accesses resolve them conservatively (slight latency overcharge,
    /// never a correctness issue — data lives in the functional image).
    pub fn invalidate_cores(&mut self, mask: u64) {
        for c in 0..self.num_cores as usize {
            if mask >> c & 1 == 1 {
                self.l1d[c].invalidate_all();
                self.l2[c].invalidate_all();
            }
        }
    }

    /// Invalidates every cache and directory entry (recovery).
    pub fn invalidate_all(&mut self) {
        for c in &mut self.l1d {
            c.invalidate_all();
        }
        for c in &mut self.l2 {
            c.invalidate_all();
        }
        self.dir.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sys(cores: u32) -> MemSystem {
        MemSystem::new(MemConfig::default(), cores, 1 << 20)
    }

    fn wa(i: u64) -> WordAddr {
        WordAddr::new(i * 8)
    }

    #[test]
    fn load_store_roundtrip_with_latency() {
        let mut m = sys(2);
        let (old, lat_store) = m.store(CoreId(0), wa(10), 99);
        assert_eq!(old, 0);
        assert!(lat_store >= m.config().dram.latency_cycles); // cold miss
        let (v, lat_load) = m.load(CoreId(0), wa(10));
        assert_eq!(v, 99);
        assert_eq!(lat_load, m.config().l1d.latency_cycles); // L1 hit
    }

    #[test]
    fn remote_write_invalidates_reader() {
        let mut m = sys(2);
        m.load(CoreId(0), wa(5));
        m.load(CoreId(1), wa(5));
        let inv_before = m.stats().invalidations;
        m.store(CoreId(1), wa(5), 7);
        assert_eq!(m.stats().invalidations, inv_before + 1);
        // Core 0 must now miss.
        let (_, lat) = m.load(CoreId(0), wa(5));
        assert!(lat > m.config().l1d.latency_cycles);
    }

    #[test]
    fn read_of_remote_dirty_is_c2c() {
        let mut m = sys(2);
        m.store(CoreId(0), wa(3), 1);
        let c2c_before = m.stats().c2c_transfers;
        let (v, _) = m.load(CoreId(1), wa(3));
        assert_eq!(v, 1);
        assert_eq!(m.stats().c2c_transfers, c2c_before + 1);
    }

    #[test]
    fn flush_writes_dirty_lines_and_cleans() {
        let mut m = sys(2);
        for i in 0..32 {
            m.store(CoreId(0), wa(i), i);
        }
        let f = m.flush_dirty(0b01);
        assert!(f.lines_flushed >= 4); // 32 words = 4 lines
        assert!(f.stall_cycles > 0);
        // Second flush finds nothing dirty.
        let f2 = m.flush_dirty(0b01);
        assert_eq!(f2.lines_flushed, 0);
        assert_eq!(f2.stall_cycles, 0);
        // Data still resident: next store is an L1 hit (plus silent
        // upgrade from the kept shared copy).
        let (_, lat) = m.store(CoreId(0), wa(0), 5);
        assert!(lat <= m.config().l1d.latency_cycles + m.config().inv_latency);
    }

    #[test]
    fn flush_only_selected_cores() {
        let mut m = sys(2);
        m.store(CoreId(0), wa(0), 1);
        m.store(CoreId(1), wa(100), 2);
        let f = m.flush_dirty(0b10);
        assert_eq!(f.lines_flushed, 1);
        let f = m.flush_dirty(0b01);
        assert_eq!(f.lines_flushed, 1);
    }

    #[test]
    fn capacity_evictions_write_back() {
        let mut m = sys(1);
        // Dirty far more lines than L2 holds (512KB = 8192 lines); touch
        // 10000 distinct lines.
        for i in 0..10_000u64 {
            m.store(CoreId(0), WordAddr::new(i * LINE_BYTES), i);
        }
        assert!(m.stats().dram_line_writes > 0);
        // Values survive eviction (functional image is authoritative).
        let (v, _) = m.load(CoreId(0), WordAddr::new(0));
        assert_eq!(v, 0);
        let (v, _) = m.load(CoreId(0), WordAddr::new(9_999 * LINE_BYTES));
        assert_eq!(v, 9_999);
    }

    #[test]
    fn invalidate_all_cold_misses_after() {
        let mut m = sys(1);
        m.store(CoreId(0), wa(1), 1);
        m.invalidate_all();
        let (v, lat) = m.load(CoreId(0), wa(1));
        assert_eq!(v, 1);
        assert!(lat >= m.config().dram.latency_cycles);
    }

    #[test]
    fn invalidate_cores_is_selective() {
        let mut m = sys(2);
        m.store(CoreId(0), wa(1), 1);
        m.store(CoreId(1), wa(200), 2);
        m.invalidate_cores(0b01);
        // Core 0 cold-misses, core 1 still hits.
        let (_, lat0) = m.load(CoreId(0), wa(1));
        assert!(lat0 > m.config().l1d.latency_cycles);
        let (_, lat1) = m.load(CoreId(1), wa(200));
        assert_eq!(lat1, m.config().l1d.latency_cycles);
    }

    #[test]
    fn sharing_groups_through_system() {
        let mut m = sys(4);
        m.enable_sharing();
        m.store(CoreId(0), wa(7), 1);
        m.load(CoreId(2), wa(7));
        let groups = m.sharing().unwrap().groups();
        assert!(groups.contains(&0b101));
        m.sharing_new_interval();
        assert_eq!(m.sharing().unwrap().groups().len(), 4);
    }

    #[test]
    fn log_write_stall_scales_with_bytes() {
        let m = sys(8); // 2 controllers
        assert_eq!(m.log_write_stall(0), 0);
        let s1 = m.log_write_stall(16 * 100);
        let s2 = m.log_write_stall(16 * 1000);
        assert!(s2 > s1);
    }
}
