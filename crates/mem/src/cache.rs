//! Set-associative write-back caches with LRU replacement.
//!
//! Caches here are *timing and state* structures only: they track which
//! lines are resident and dirty, but the data words live in the functional
//! memory image (`acr-mem::dram`). This is the decoupled functional/timing
//! organisation the paper's own simulator (Sniper) uses.

use crate::addr::LineAddr;

/// Geometry and latency of one cache level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size_bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Access latency in core cycles (applies to hits; misses additionally
    /// pay the next level's latency).
    pub latency_cycles: u64,
}

impl CacheConfig {
    /// Number of sets implied by the geometry.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is degenerate (zero ways or capacity smaller
    /// than one way of lines).
    pub fn num_sets(&self) -> usize {
        assert!(self.ways > 0, "cache must have at least one way");
        let lines = self.size_bytes / crate::addr::LINE_BYTES;
        let sets = lines as usize / self.ways;
        assert!(sets > 0, "cache smaller than one way");
        sets
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Way {
    line: LineAddr,
    dirty: bool,
    /// LRU stamp: larger is more recent.
    stamp: u64,
}

impl Way {
    /// Filler for never-occupied slots of the flat way array; slots past a
    /// set's occupancy count are never read.
    const EMPTY: Way = Way {
        line: LineAddr(0),
        dirty: false,
        stamp: 0,
    };
}

/// Result of a cache lookup/fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LookupResult {
    /// The line was resident.
    Hit,
    /// The line was not resident.
    Miss,
}

/// A dirty line evicted by a fill, which must be written back to the next
/// level / memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Eviction {
    /// The evicted line.
    pub line: LineAddr,
    /// Whether the line was dirty (needs write-back).
    pub dirty: bool,
}

/// A set-associative, write-back, write-allocate cache with LRU replacement.
///
/// Ways are stored in one flat array with a fixed per-set stride (plus a
/// per-set occupancy count) rather than per-set `Vec`s: a lookup touches a
/// single contiguous run of at most `ways` entries with no per-set heap
/// indirection. The set index is a bitmask when the set count is a power
/// of two (it is, for every Table I geometry), falling back to modulo
/// otherwise — both produce the same index, so the layout is purely a host
/// optimisation and cannot perturb simulated behaviour.
#[derive(Debug, Clone)]
pub struct Cache {
    config: CacheConfig,
    num_sets: usize,
    /// `num_sets - 1` when the set count is a power of two, else the
    /// `usize::MAX` sentinel selecting the modulo fallback.
    set_mask: usize,
    /// Flat way storage: set `s` occupies `[s * ways, s * ways + occ[s])`.
    ways: Vec<Way>,
    /// Occupied ways per set.
    occ: Vec<u16>,
    tick: u64,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    pub fn new(config: CacheConfig) -> Self {
        let num_sets = config.num_sets();
        assert!(
            config.ways <= usize::from(u16::MAX),
            "associativity above {} unsupported",
            u16::MAX
        );
        Cache {
            config,
            num_sets,
            set_mask: if num_sets.is_power_of_two() {
                num_sets - 1
            } else {
                usize::MAX
            },
            ways: vec![Way::EMPTY; num_sets * config.ways],
            occ: vec![0; num_sets],
            tick: 0,
        }
    }

    /// The cache's configuration.
    #[inline]
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    #[inline]
    fn set_index(&self, line: LineAddr) -> usize {
        let i = line.0 as usize;
        if self.set_mask != usize::MAX {
            i & self.set_mask
        } else {
            i % self.num_sets
        }
    }

    /// The occupied slots of set `s` in the flat way array.
    #[inline]
    fn set_range(&self, s: usize) -> std::ops::Range<usize> {
        let base = s * self.config.ways;
        base..base + usize::from(self.occ[s])
    }

    /// Probes for `line` without changing replacement state.
    pub fn contains(&self, line: LineAddr) -> bool {
        let r = self.set_range(self.set_index(line));
        self.ways[r].iter().any(|w| w.line == line)
    }

    /// Accesses `line`, touching LRU state. Returns hit/miss; does **not**
    /// allocate on miss (use [`Cache::fill`]).
    #[inline]
    pub fn access(&mut self, line: LineAddr, write: bool) -> LookupResult {
        self.tick += 1;
        let r = self.set_range(self.set_index(line));
        let tick = self.tick;
        if let Some(w) = self.ways[r].iter_mut().find(|w| w.line == line) {
            w.stamp = tick;
            if write {
                w.dirty = true;
            }
            LookupResult::Hit
        } else {
            LookupResult::Miss
        }
    }

    /// Allocates `line` (after a miss), evicting the LRU way if the set is
    /// full. Returns the eviction, if any.
    pub fn fill(&mut self, line: LineAddr, dirty: bool) -> Option<Eviction> {
        self.tick += 1;
        let s = self.set_index(line);
        let base = s * self.config.ways;
        let occ = usize::from(self.occ[s]);
        let set = &mut self.ways[base..base + occ];
        debug_assert!(
            set.iter().all(|w| w.line != line),
            "fill of already-resident line"
        );
        let incoming = Way {
            line,
            dirty,
            stamp: self.tick,
        };
        if occ == self.config.ways {
            let lru = set
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| w.stamp)
                .map(|(i, _)| i)
                .expect("non-empty set");
            let w = set[lru];
            // Same slot reuse as `Vec::swap_remove` + `push`: the last way
            // moves into the vacated slot and the incoming line takes the
            // last slot.
            set[lru] = set[occ - 1];
            set[occ - 1] = incoming;
            Some(Eviction {
                line: w.line,
                dirty: w.dirty,
            })
        } else {
            self.ways[base + occ] = incoming;
            self.occ[s] = (occ + 1) as u16;
            None
        }
    }

    /// Invalidates `line` if resident, returning whether it was dirty.
    pub fn invalidate(&mut self, line: LineAddr) -> Option<bool> {
        let s = self.set_index(line);
        let occ = usize::from(self.occ[s]);
        let base = s * self.config.ways;
        let set = &mut self.ways[base..base + occ];
        let pos = set.iter().position(|w| w.line == line)?;
        let w = set[pos];
        set[pos] = set[occ - 1];
        self.occ[s] = (occ - 1) as u16;
        Some(w.dirty)
    }

    /// Clears the dirty bit of `line` (after a write-back that keeps the
    /// line resident clean, as in checkpoint flushes), returning `true` if
    /// the line was resident and dirty.
    pub fn clean(&mut self, line: LineAddr) -> bool {
        let r = self.set_range(self.set_index(line));
        if let Some(w) = self.ways[r].iter_mut().find(|w| w.line == line) {
            let was = w.dirty;
            w.dirty = false;
            was
        } else {
            false
        }
    }

    /// All resident dirty lines (for checkpoint flushes).
    pub fn dirty_lines(&self) -> Vec<LineAddr> {
        let mut v: Vec<LineAddr> = (0..self.num_sets)
            .flat_map(|s| self.ways[self.set_range(s)].iter())
            .filter(|w| w.dirty)
            .map(|w| w.line)
            .collect();
        v.sort_unstable();
        v
    }

    /// Drops every line (recovery invalidates caches so stale timing state
    /// does not survive rollback).
    pub fn invalidate_all(&mut self) {
        self.occ.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 lines, 2 ways => 2 sets.
        Cache::new(CacheConfig {
            size_bytes: 4 * crate::addr::LINE_BYTES,
            ways: 2,
            latency_cycles: 4,
        })
    }

    #[test]
    fn hit_after_fill() {
        let mut c = tiny();
        assert_eq!(c.access(LineAddr(0), false), LookupResult::Miss);
        assert!(c.fill(LineAddr(0), false).is_none());
        assert_eq!(c.access(LineAddr(0), false), LookupResult::Hit);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Lines 0, 2, 4 all map to set 0 (even lines, 2 sets).
        c.fill(LineAddr(0), false);
        c.fill(LineAddr(2), false);
        c.access(LineAddr(0), false); // 0 is now MRU
        let ev = c.fill(LineAddr(4), false).expect("set was full");
        assert_eq!(ev.line, LineAddr(2));
        assert!(c.contains(LineAddr(0)));
        assert!(c.contains(LineAddr(4)));
    }

    #[test]
    fn dirty_eviction_flagged() {
        let mut c = tiny();
        c.fill(LineAddr(0), false);
        c.access(LineAddr(0), true); // dirty it
        c.fill(LineAddr(2), false); // line 2 now MRU, line 0 LRU
        let ev = c.fill(LineAddr(4), false).unwrap();
        assert_eq!(ev.line, LineAddr(0));
        assert!(ev.dirty);
        let ev = c.fill(LineAddr(6), false).unwrap();
        assert_eq!(ev.line, LineAddr(2));
        assert!(!ev.dirty);
    }

    #[test]
    fn clean_and_dirty_lines() {
        let mut c = tiny();
        c.fill(LineAddr(1), false);
        c.access(LineAddr(1), true);
        c.fill(LineAddr(0), true);
        let mut d = c.dirty_lines();
        d.sort_unstable();
        assert_eq!(d, vec![LineAddr(0), LineAddr(1)]);
        assert!(c.clean(LineAddr(1)));
        assert_eq!(c.dirty_lines(), vec![LineAddr(0)]);
        assert!(!c.clean(LineAddr(1)));
    }

    #[test]
    fn invalidate_reports_dirty() {
        let mut c = tiny();
        c.fill(LineAddr(3), true);
        assert_eq!(c.invalidate(LineAddr(3)), Some(true));
        assert_eq!(c.invalidate(LineAddr(3)), None);
        assert!(!c.contains(LineAddr(3)));
    }

    #[test]
    fn invalidate_all_empties() {
        let mut c = tiny();
        c.fill(LineAddr(0), true);
        c.fill(LineAddr(1), false);
        c.invalidate_all();
        assert!(c.dirty_lines().is_empty());
        assert!(!c.contains(LineAddr(0)));
    }
}
