//! # acr-workloads — NAS-like synthetic kernel generators
//!
//! The paper evaluates eight NAS benchmarks (`bt cg dc ft is lu mg sp`,
//! i.e. the suite minus `ep`, plus DC) on 8/16/32 threads. Real NAS
//! binaries cannot run on our ISA, so this crate generates synthetic
//! kernels whose *relevant* properties are modelled on the real codes —
//! the properties that determine every effect the paper measures:
//!
//! * **Producer-chain depth per store.** The arithmetic backward-slice
//!   length of each store decides whether ACR can cover it at a given
//!   threshold (Table II). Each kernel's store sites draw depths from a
//!   benchmark-specific distribution: `is` (integer sort) stores tiny
//!   ranking computations (≤ 5 ops, 97 % coverage at threshold 5), `cg`
//!   accumulates long sparse dot products (mostly 11–30 ops, only ≈ 7 %
//!   coverage at threshold 10), `bt`/`sp`/`lu` mix shallow and deep block
//!   solves, `mg` sits mostly in the 21–30 band, `ft` in 11–40, `dc`
//!   (aggregation counters) mostly shallow, and every kernel has some
//!   never-coverable stores (pure copies, or chains beyond 50 ops).
//! * **Phase structure.** Kernels iterate sweeps over their arrays, so
//!   old values are recomputable from the previous sweep's `ASSOC-ADDR`;
//!   phases with different class mixes create the per-interval variation
//!   of Fig. 10, and `is`'s final permutation phase (pure copies, large
//!   state) reproduces its tiny *Max* reduction in Fig. 9.
//! * **Inter-core communication.** `bt`/`cg`/`sp` exchange shared data
//!   every sweep (all-to-all — coordinated local checkpointing degenerates
//!   to global, Fig. 13); `ft`/`is`/`mg`/`dc` communicate rarely and in
//!   small groups; `lu` is in between.
//! * **Per-interval load imbalance.** The "heavy role" rotates across
//!   threads, so global coordination pays the per-interval maximum while
//!   local groups pay their own cost — the source of the local scheme's
//!   advantage.
//!
//! Generation is deterministic for a given [`WorkloadConfig`] seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod emit;
mod spec;

pub use emit::generate;
pub use spec::{kernel_spec, ClassKind, ClassSpec, Comm, HeavySpec, KernelSpec, PhaseSpec};

use std::fmt;

/// The benchmarks of the paper's evaluation (NAS minus `ep`, plus DC).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)]
pub enum Benchmark {
    Bt,
    Cg,
    Dc,
    Ft,
    Is,
    Lu,
    Mg,
    Sp,
}

impl Benchmark {
    /// All benchmarks, in the paper's alphabetical order.
    pub const ALL: [Benchmark; 8] = [
        Benchmark::Bt,
        Benchmark::Cg,
        Benchmark::Dc,
        Benchmark::Ft,
        Benchmark::Is,
        Benchmark::Lu,
        Benchmark::Mg,
        Benchmark::Sp,
    ];

    /// The benchmark's lowercase name.
    pub fn name(self) -> &'static str {
        match self {
            Benchmark::Bt => "bt",
            Benchmark::Cg => "cg",
            Benchmark::Dc => "dc",
            Benchmark::Ft => "ft",
            Benchmark::Is => "is",
            Benchmark::Lu => "lu",
            Benchmark::Mg => "mg",
            Benchmark::Sp => "sp",
        }
    }

    /// Parses a benchmark name.
    pub fn from_name(s: &str) -> Option<Benchmark> {
        Benchmark::ALL.iter().copied().find(|b| b.name() == s)
    }

    /// The Slice-length threshold the paper uses for this benchmark: 10,
    /// except `is`, where footnote 4 conservatively reduces it to 5 (at
    /// 10 essentially everything would be omitted).
    pub fn default_threshold(self) -> usize {
        if self == Benchmark::Is {
            5
        } else {
            10
        }
    }
}

impl fmt::Display for Benchmark {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Workload generation parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadConfig {
    /// Threads (== cores; the paper pins one per core). 8/16/32 in the
    /// paper.
    pub threads: u32,
    /// Scales the number of sweeps (execution length); 1.0 is the default
    /// region-of-interest size.
    pub scale: f64,
    /// Deterministic generation seed.
    pub seed: u64,
}

impl Default for WorkloadConfig {
    fn default() -> Self {
        WorkloadConfig {
            threads: 8,
            scale: 1.0,
            seed: 0xAC12_2020,
        }
    }
}

impl WorkloadConfig {
    /// A config with the given thread count (chainable).
    pub fn with_threads(mut self, threads: u32) -> Self {
        self.threads = threads;
        self
    }

    /// A config with the given scale (chainable).
    pub fn with_scale(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }
}
