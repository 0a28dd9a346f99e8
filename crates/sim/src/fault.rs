//! Deterministic fault injection.
//!
//! A [`FaultPlan`] is a seeded, fully deterministic campaign of state
//! corruptions expressed in the *progress* metric (total retired
//! instructions) — the same clock checkpoint triggers and error schedules
//! use, so an injection point means the same thing in a raw and an
//! instrumented binary. No wall-clock time or OS randomness is involved:
//! the same seed always produces the same plan, and applying the same plan
//! to the same machine always produces the same execution.
//!
//! The kinds model the classic soft-error surface:
//!
//! * [`FaultKind::RegBitFlip`] — a single-event upset in a register file
//!   cell,
//! * [`FaultKind::PcBitFlip`] — a control-flow upset (the core continues
//!   from the wrong instruction),
//! * [`FaultKind::MemBitFlip`] — a flipped DRAM/cache word, made globally
//!   visible by invalidating cached copies,
//! * [`FaultKind::Crash`] — a power-loss event: every core's volatile
//!   architectural state is lost at once.
//!
//! Two *adversarial* kinds extend that surface with the fault shapes real
//! memories exhibit (off by default, so classic plans — and the golden
//! campaign hashes pinned on them — are untouched):
//!
//! * [`FaultKind::MemBurst`] — a spatially correlated multi-bit upset:
//!   `span` adjacent bits flip, carrying into the next word(s), modeling
//!   row-adjacent DRAM upsets,
//! * [`FaultKind::StuckAt`] — a memory cell pinned to 0/1 that re-corrupts
//!   on every write until recovery rewrites (remaps) the line, exercising
//!   the escalation ladder's re-replay and degraded-mode rungs.
//!
//! Temporal clustering is modeled by [`FaultStorm`]: when set on a
//! [`FaultPlanConfig`], injection points arrive in seeded Poisson-style
//! bursts instead of uniformly.
//!
//! Register, pc, and crash faults corrupt only state that a checkpoint
//! fully re-creates, so a correct recovery always repairs them. Memory
//! faults (single-bit, burst, or stuck-at) can corrupt words the
//! incremental log no longer covers (or poison old-value records captured
//! *after* the flip), so they are *potentially unrecoverable* — the
//! verification harness must classify them, never silently diverge.

use acr_isa::NUM_REGS;
use acr_mem::{CoreId, WordAddr};
use acr_rng::SmallRng;

/// The kind of state corruption to inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Flip bit `bit` of architectural register `reg` on the target core.
    RegBitFlip {
        /// Register index (`0..NUM_REGS`).
        reg: u8,
        /// Bit position (`0..64`).
        bit: u8,
    },
    /// Flip a low bit of the target core's program counter.
    PcBitFlip {
        /// Bit position (`0..PC_FAULT_BITS`), keeping the bad jump within
        /// a small window so the run keeps retiring instructions (which is
        /// what lets progress-based detection fire).
        bit: u8,
    },
    /// Flip bit `bit` of the memory word at `addr`; all cached copies are
    /// invalidated so the corruption is globally visible.
    MemBitFlip {
        /// Target word.
        addr: WordAddr,
        /// Bit position (`0..64`).
        bit: u8,
    },
    /// Spatially correlated multi-bit upset: flip `span` adjacent bits
    /// starting at bit `bit` of the word at `addr`, carrying into the next
    /// word(s) — a row-adjacent DRAM burst. Truncated at the end of the
    /// memory image.
    MemBurst {
        /// First affected word.
        addr: WordAddr,
        /// Starting bit position (`0..64`).
        bit: u8,
        /// Number of adjacent bits to flip (`2..=BURST_MAX_SPAN`).
        span: u8,
    },
    /// Stuck-at cell: bit `bit` of the word at `addr` is pinned to
    /// `stuck_one` and re-asserts itself on every subsequent write until
    /// the line is rewritten (remapped) by recovery, which scrubs the
    /// cell. First assertion corrupts the word immediately.
    StuckAt {
        /// Pinned word.
        addr: WordAddr,
        /// Pinned bit position (`0..64`).
        bit: u8,
        /// `true` pins the bit to 1, `false` pins it to 0.
        stuck_one: bool,
    },
    /// Power-loss crash: every core loses registers and pc simultaneously.
    /// Detection is immediate (a crash is not silent).
    Crash,
}

/// Highest pc bit a [`FaultKind::PcBitFlip`] may flip.
pub const PC_FAULT_BITS: u8 = 4;

/// Largest adjacent-bit span a [`FaultKind::MemBurst`] may flip.
pub const BURST_MAX_SPAN: u8 = 8;

impl FaultKind {
    /// Short stable label for reports ("reg" / "pc" / "mem" / "burst" /
    /// "stuck" / "crash").
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::RegBitFlip { .. } => "reg",
            FaultKind::PcBitFlip { .. } => "pc",
            FaultKind::MemBitFlip { .. } => "mem",
            FaultKind::MemBurst { .. } => "burst",
            FaultKind::StuckAt { .. } => "stuck",
            FaultKind::Crash => "crash",
        }
    }

    /// Whether a correct checkpoint recovery is guaranteed to repair this
    /// fault (see the module docs for why memory corruptions are not).
    pub fn guaranteed_recoverable(&self) -> bool {
        !matches!(
            self,
            FaultKind::MemBitFlip { .. } | FaultKind::MemBurst { .. } | FaultKind::StuckAt { .. }
        )
    }
}

/// One planned fault: corrupt `core` with `kind` once total retired
/// instructions reach `at_progress`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fault {
    /// Injection point in retired instructions.
    pub at_progress: u64,
    /// Target core (ignored by [`FaultKind::MemBitFlip`] and
    /// [`FaultKind::Crash`], which are not core-local).
    pub core: CoreId,
    /// What to corrupt.
    pub kind: FaultKind,
}

/// Which fault kinds a campaign draws from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultKindSet {
    /// Register-file bit flips.
    pub reg: bool,
    /// Program-counter bit flips.
    pub pc: bool,
    /// Memory-word bit flips (potentially unrecoverable).
    pub mem: bool,
    /// Adjacent multi-bit memory bursts (potentially unrecoverable).
    pub burst: bool,
    /// Stuck-at memory cells (potentially unrecoverable; re-corrupting).
    pub stuck: bool,
    /// Whole-machine power-loss crashes.
    pub crash: bool,
}

impl FaultKindSet {
    /// The set with no kind enabled — only useful as a comparison anchor.
    fn none() -> Self {
        FaultKindSet {
            reg: false,
            pc: false,
            mem: false,
            burst: false,
            stuck: false,
            crash: false,
        }
    }

    /// Every *classic* kind, including potentially unrecoverable memory
    /// flips. This is the historical set the pinned golden campaign
    /// hashes were generated with, so it deliberately excludes the
    /// adversarial kinds; use [`FaultKindSet::adversarial`] to opt into
    /// those as well.
    pub fn all() -> Self {
        FaultKindSet {
            reg: true,
            pc: true,
            mem: true,
            crash: true,
            ..Self::none()
        }
    }

    /// Every kind, classic and adversarial (bursts and stuck-at cells).
    pub fn adversarial() -> Self {
        FaultKindSet {
            burst: true,
            stuck: true,
            ..Self::all()
        }
    }

    /// Only kinds a correct recovery is guaranteed to repair.
    pub fn recoverable() -> Self {
        FaultKindSet {
            reg: true,
            pc: true,
            crash: true,
            ..Self::none()
        }
    }

    /// Labels of the enabled kinds, in the fixed order reg, pc, mem,
    /// burst, stuck, crash — the order [`FaultPlan::generate`] draws from,
    /// so it pins every plan. The memory kinds (mem, burst, stuck) are
    /// listed only when `has_mem_targets`: they need a written word to
    /// land on.
    pub fn labels(&self, has_mem_targets: bool) -> Vec<&'static str> {
        let mem = has_mem_targets;
        [
            ("reg", self.reg),
            ("pc", self.pc),
            ("mem", self.mem && mem),
            ("burst", self.burst && mem),
            ("stuck", self.stuck && mem),
            ("crash", self.crash),
        ]
        .into_iter()
        .filter_map(|(label, on)| on.then_some(label))
        .collect()
    }

    /// Parses a comma-separated list of kind labels (e.g. `"reg,mem"` or
    /// `"burst,stuck"`), or the shorthands `"all"` (classic kinds),
    /// `"recoverable"`, and `"adversarial"` (everything).
    pub fn parse(s: &str) -> Result<Self, String> {
        match s {
            "all" => return Ok(Self::all()),
            "recoverable" => return Ok(Self::recoverable()),
            "adversarial" => return Ok(Self::adversarial()),
            _ => {}
        }
        let mut set = Self::none();
        for part in s.split(',') {
            match part.trim() {
                "reg" => set.reg = true,
                "pc" => set.pc = true,
                "mem" => set.mem = true,
                "burst" => set.burst = true,
                "stuck" => set.stuck = true,
                "crash" => set.crash = true,
                other => return Err(format!("unknown fault kind `{other}`")),
            }
        }
        if set == Self::none() {
            return Err("empty fault-kind set".to_string());
        }
        Ok(set)
    }
}

impl Default for FaultKindSet {
    /// Defaults to the guaranteed-recoverable kinds.
    fn default() -> Self {
        Self::recoverable()
    }
}

/// Temporal clustering for [`FaultPlan::generate`]: instead of drawing
/// injection points uniformly, points arrive in seeded Poisson-style
/// bursts — an exponential-ish inter-burst gap (uniform over
/// `[1, 2 * mean_gap]`) followed by a cluster of `1 + Geometric(1/2)`
/// faults (truncated at `max_burst`) at adjacent progress points. All
/// arithmetic is integer-only, so schedules are bit-reproducible across
/// hosts. Off by default ([`FaultPlanConfig::storm`]` = None`), which
/// keeps classic plans — and the golden campaign hashes pinned on them —
/// byte-identical.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultStorm {
    /// Mean inter-burst gap in progress units (≥ 1).
    pub mean_gap: u64,
    /// Largest burst size (≥ 1).
    pub max_burst: u32,
}

impl Default for FaultStorm {
    /// A dense default: bursts of up to 6 arriving every ~200 retired
    /// instructions.
    fn default() -> Self {
        FaultStorm {
            mean_gap: 200,
            max_burst: 6,
        }
    }
}

impl FaultStorm {
    /// Parses a `"MEAN_GAP,MAX_BURST"` spec (e.g. `"200,6"`).
    pub fn parse(s: &str) -> Result<Self, String> {
        let (g, b) = s
            .split_once(',')
            .ok_or_else(|| format!("bad storm spec `{s}` (want MEAN_GAP,MAX_BURST)"))?;
        let mean_gap = g
            .trim()
            .parse::<u64>()
            .map_err(|e| format!("bad storm mean gap `{g}`: {e}"))?;
        let max_burst = b
            .trim()
            .parse::<u32>()
            .map_err(|e| format!("bad storm max burst `{b}`: {e}"))?;
        if mean_gap == 0 || max_burst == 0 {
            return Err("storm mean gap and max burst must be >= 1".to_string());
        }
        Ok(FaultStorm {
            mean_gap,
            max_burst,
        })
    }
}

/// Inputs the deterministic plan generator needs about the target machine
/// and program.
#[derive(Debug, Clone)]
pub struct FaultPlanConfig {
    /// Campaign seed.
    pub seed: u64,
    /// Number of faults to plan (one per campaign case).
    pub count: u32,
    /// Kinds to draw from.
    pub kinds: FaultKindSet,
    /// Total retired instructions of the fault-free run; injection points
    /// are drawn from `[1, total_progress)`.
    pub total_progress: u64,
    /// Number of cores faults may target.
    pub cores: u32,
    /// Candidate words for memory flips — normally the program's written
    /// working set from a [`crate::StoreCensus`] pre-run, so flips land on
    /// state the program actually uses.
    pub mem_targets: Vec<WordAddr>,
    /// Optional temporal clustering of injection points. `None` (the
    /// default everywhere) draws points uniformly, exactly as historical
    /// plans did.
    pub storm: Option<FaultStorm>,
}

/// A seeded, deterministic fault campaign.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// Planned faults, in generation order (one per campaign case; they
    /// are independent experiments, not a sequence within one run).
    pub faults: Vec<Fault>,
}

impl FaultPlan {
    /// Generates a plan from `cfg`. Deterministic: same config, same plan.
    ///
    /// # Panics
    ///
    /// Panics if `total_progress < 2`, no kind is enabled, or `mem` is the
    /// only enabled kind while `mem_targets` is empty.
    pub fn generate(cfg: &FaultPlanConfig) -> FaultPlan {
        assert!(cfg.total_progress >= 2, "program too short to inject into");
        assert!(cfg.cores >= 1, "need at least one core");
        let kinds = cfg.kinds.labels(!cfg.mem_targets.is_empty());
        assert!(!kinds.is_empty(), "no injectable fault kind enabled");
        let mut rng = SmallRng::seed_from_u64(cfg.seed);
        // Storm schedules consume RNG draws up front; the `None` path
        // leaves the draw sequence byte-identical to historical plans.
        let storm_slots = cfg
            .storm
            .map(|s| storm_schedule(&mut rng, s, cfg.count, cfg.total_progress));
        let faults = (0..cfg.count)
            .map(|i| {
                let at_progress = match &storm_slots {
                    Some(slots) => slots[i as usize],
                    None => rng.gen_range(1..cfg.total_progress),
                };
                let core = CoreId(rng.gen_range(0..cfg.cores));
                let kind = match *rng.choose(&kinds) {
                    "reg" => FaultKind::RegBitFlip {
                        reg: rng.gen_range(0..NUM_REGS as u8),
                        bit: rng.gen_range(0..64u8),
                    },
                    "pc" => FaultKind::PcBitFlip {
                        bit: rng.gen_range(0..PC_FAULT_BITS),
                    },
                    "mem" => FaultKind::MemBitFlip {
                        addr: *rng.choose(&cfg.mem_targets),
                        bit: rng.gen_range(0..64u8),
                    },
                    "burst" => FaultKind::MemBurst {
                        addr: *rng.choose(&cfg.mem_targets),
                        bit: rng.gen_range(0..64u8),
                        span: 2 + rng.gen_range(0..BURST_MAX_SPAN - 1),
                    },
                    "stuck" => FaultKind::StuckAt {
                        addr: *rng.choose(&cfg.mem_targets),
                        bit: rng.gen_range(0..64u8),
                        stuck_one: rng.gen_range(0..2u8) == 1,
                    },
                    _ => FaultKind::Crash,
                };
                Fault {
                    at_progress,
                    core,
                    kind,
                }
            })
            .collect();
        FaultPlan { faults }
    }
}

/// Seeded Poisson-burst schedule of `count` injection points in
/// `[1, total)`: exponential-ish inter-burst gaps, geometric burst sizes,
/// adjacent progress points within a burst. Integer arithmetic only.
fn storm_schedule(rng: &mut SmallRng, storm: FaultStorm, count: u32, total: u64) -> Vec<u64> {
    let span = total - 1; // valid points are 1..total
    let gap = storm.mean_gap.max(1);
    let mut slots = Vec::with_capacity(count as usize);
    let mut t: u64 = 0;
    while slots.len() < count as usize {
        t = t.wrapping_add(1 + rng.gen_range(0..2 * gap));
        let mut k = 1u32;
        while k < storm.max_burst.max(1) && rng.gen_range(0..2u32) == 1 {
            k += 1;
        }
        for j in 0..u64::from(k) {
            if slots.len() == count as usize {
                break;
            }
            slots.push(1 + (t + j) % span);
        }
    }
    slots
}

/// A corruption that strikes *while recovery itself is running* — the
/// nested-fault surface the base [`FaultPlan`] does not model. JASS-style
/// multi-level retention and ReStore-style redundant recovery state exist
/// precisely because these happen; the escalation ladder in
/// `acr-ckpt::engine` is exercised by injecting them deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryFaultKind {
    /// Corrupt the output of one Slice replay: the first recomputation of
    /// an omitted word returns a value with `bit` flipped. The omitted
    /// record's stored checksum exposes the mismatch; a re-replay (Slice
    /// execution is repeatable) produces the correct word.
    ReplayInput {
        /// Bit flipped in the recomputed value (`0..64`).
        bit: u8,
    },
    /// Flip `bit` of a restored word after it is written back to memory.
    /// Read-back verification against the log record detects it; rewriting
    /// the word on retry repairs it.
    RestoredWordFlip {
        /// Bit flipped in the restored word (`0..64`).
        bit: u8,
    },
    /// Persistently corrupt one old-value log record (flip `bit` of its
    /// stored value) before it is applied. The per-record checksum detects
    /// the tear; the retry repairs the record from the redundant mirror
    /// copy (ReStore-style) at an extra read cost.
    TornRecord {
        /// Bit flipped in the record's stored old value (`0..64`).
        bit: u8,
    },
    /// Power-loss crash halfway through applying the restore: the attempt
    /// stops after half the records. Restoring old values is idempotent,
    /// so a full retry from the same generation succeeds.
    CrashMidRestore,
    /// The selected safe checkpoint turns out to be a torn commit (a crash
    /// landed inside its commit window): its integrity checksum fails
    /// verification, forcing fallback to the previous retained generation.
    TornCommit,
}

impl RecoveryFaultKind {
    /// Short stable label for reports and the escalation histogram.
    pub fn label(&self) -> &'static str {
        match self {
            RecoveryFaultKind::ReplayInput { .. } => "replay-input",
            RecoveryFaultKind::RestoredWordFlip { .. } => "restored-word",
            RecoveryFaultKind::TornRecord { .. } => "torn-record",
            RecoveryFaultKind::CrashMidRestore => "crash-mid-restore",
            RecoveryFaultKind::TornCommit => "torn-commit",
        }
    }
}

/// One planned recovery-window fault: strike during the `at_recovery`-th
/// recovery of the run (0-based), once.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecoveryFault {
    /// Which recovery of the run to strike (0 = the first).
    pub at_recovery: u32,
    /// What to corrupt inside the recovery window.
    pub kind: RecoveryFaultKind,
}

impl RecoveryFault {
    /// Deterministic per-case recovery-fault plan: one fault striking the
    /// case's first recovery, its kind cycling through all five classes
    /// and its bit position derived from the seed. No RNG — the same
    /// `(seed, case)` always yields the same plan, which keeps campaign
    /// output byte-identical across runs.
    pub fn planned(seed: u64, case: u32) -> Vec<RecoveryFault> {
        let mix = seed
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(u64::from(case));
        let bit = (mix >> 8) as u8 % 64;
        let kind = match (u64::from(case).wrapping_add(seed)) % 5 {
            0 => RecoveryFaultKind::ReplayInput { bit },
            1 => RecoveryFaultKind::RestoredWordFlip { bit },
            2 => RecoveryFaultKind::TornRecord { bit },
            3 => RecoveryFaultKind::CrashMidRestore,
            _ => RecoveryFaultKind::TornCommit,
        };
        vec![RecoveryFault {
            at_recovery: 0,
            kind,
        }]
    }
}

/// What applying a fault actually changed — recorded so campaign reports
/// can describe each case precisely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEffect {
    /// A register bit was flipped.
    Reg {
        /// Target core.
        core: CoreId,
        /// Register index.
        reg: u8,
        /// Value after the flip.
        after: u64,
    },
    /// The pc was redirected.
    Pc {
        /// Target core.
        core: CoreId,
        /// pc before the flip.
        from: u32,
        /// pc after the flip.
        to: u32,
    },
    /// A memory word was flipped in the backing image.
    Mem {
        /// Target word.
        addr: WordAddr,
        /// Word value before the flip.
        before: u64,
        /// Word value after the flip.
        after: u64,
    },
    /// A burst flipped adjacent memory bits in the backing image.
    MemBurst {
        /// First affected word.
        addr: WordAddr,
        /// Bits actually flipped (the span truncates at the image end).
        bits: u64,
    },
    /// A stuck-at cell was armed and its pin first asserted.
    Stuck {
        /// Pinned word.
        addr: WordAddr,
        /// Pinned bit position.
        bit: u8,
        /// Pin polarity.
        stuck_one: bool,
    },
    /// All cores lost volatile state.
    Crash,
}

/// An armed stuck-at cell tracked by the machine: the pin re-asserts
/// itself onto the functional memory image as execution progresses, until
/// recovery rewrites (remaps) the line and scrubs the cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StuckCell {
    /// Pinned word.
    pub addr: WordAddr,
    /// Pinned bit position (`0..64`).
    pub bit: u8,
    /// `true` pins the bit to 1, `false` pins it to 0.
    pub stuck_one: bool,
}

impl StuckCell {
    /// Applies the pin to `value`, returning the pinned word.
    pub fn pin(&self, value: u64) -> u64 {
        if self.stuck_one {
            value | (1u64 << self.bit)
        } else {
            value & !(1u64 << self.bit)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> FaultPlanConfig {
        FaultPlanConfig {
            seed: 7,
            count: 64,
            kinds: FaultKindSet::all(),
            total_progress: 10_000,
            cores: 4,
            mem_targets: vec![WordAddr::new(0), WordAddr::new(64), WordAddr::new(128)],
            storm: None,
        }
    }

    #[test]
    fn kind_labels_keep_plan_order_and_round_trip() {
        let every = FaultKindSet::adversarial();
        assert_eq!(
            every.labels(true),
            ["reg", "pc", "mem", "burst", "stuck", "crash"]
        );
        assert_eq!(every.labels(false), ["reg", "pc", "crash"]);
        for k in [every, FaultKindSet::all(), FaultKindSet::recoverable()] {
            assert_eq!(FaultKindSet::parse(&k.labels(true).join(",")), Ok(k));
        }
    }

    #[test]
    fn plans_are_deterministic() {
        assert_eq!(FaultPlan::generate(&cfg()), FaultPlan::generate(&cfg()));
        let mut other = cfg();
        other.seed = 8;
        assert_ne!(FaultPlan::generate(&cfg()), FaultPlan::generate(&other));
    }

    #[test]
    fn plans_respect_bounds_and_kinds() {
        let plan = FaultPlan::generate(&cfg());
        assert_eq!(plan.faults.len(), 64);
        let mut labels = std::collections::BTreeSet::new();
        for f in &plan.faults {
            assert!((1..10_000).contains(&f.at_progress));
            assert!(f.core.0 < 4);
            labels.insert(f.kind.label());
            match f.kind {
                FaultKind::RegBitFlip { reg, bit } => {
                    assert!((reg as usize) < NUM_REGS && bit < 64);
                }
                FaultKind::PcBitFlip { bit } => assert!(bit < PC_FAULT_BITS),
                FaultKind::MemBitFlip { addr, bit } => {
                    assert!(addr.byte() <= 128 && bit < 64);
                }
                FaultKind::Crash => {}
                FaultKind::MemBurst { .. } | FaultKind::StuckAt { .. } => {
                    unreachable!("all() excludes adversarial kinds")
                }
            }
        }
        // With 64 draws over 4 kinds, every kind appears.
        assert_eq!(labels.len(), 4);
    }

    #[test]
    fn recoverable_set_excludes_mem() {
        let mut c = cfg();
        c.kinds = FaultKindSet::recoverable();
        for f in &FaultPlan::generate(&c).faults {
            assert!(f.kind.guaranteed_recoverable());
        }
    }

    #[test]
    fn recovery_plans_are_deterministic_and_cover_all_kinds() {
        let mut labels = std::collections::BTreeSet::new();
        for case in 0..10 {
            let plan = RecoveryFault::planned(42, case);
            assert_eq!(plan, RecoveryFault::planned(42, case));
            assert_eq!(plan.len(), 1);
            assert_eq!(plan[0].at_recovery, 0);
            labels.insert(plan[0].kind.label());
            match plan[0].kind {
                RecoveryFaultKind::ReplayInput { bit }
                | RecoveryFaultKind::RestoredWordFlip { bit }
                | RecoveryFaultKind::TornRecord { bit } => assert!(bit < 64),
                _ => {}
            }
        }
        // Ten consecutive cases cycle through all five classes.
        assert_eq!(labels.len(), 5);
    }

    #[test]
    fn kind_set_parses() {
        assert_eq!(FaultKindSet::parse("all").unwrap(), FaultKindSet::all());
        assert_eq!(
            FaultKindSet::parse("recoverable").unwrap(),
            FaultKindSet::recoverable()
        );
        assert_eq!(
            FaultKindSet::parse("adversarial").unwrap(),
            FaultKindSet::adversarial()
        );
        let set = FaultKindSet::parse("reg,mem").unwrap();
        assert!(set.reg && set.mem && !set.pc && !set.crash && !set.burst && !set.stuck);
        let adv = FaultKindSet::parse("burst,stuck").unwrap();
        assert!(adv.burst && adv.stuck && !adv.reg && !adv.mem);
        assert!(FaultKindSet::parse("bogus").is_err());
        assert!(FaultKindSet::parse("").is_err());
    }

    #[test]
    fn adversarial_plans_draw_bursts_and_stuck_cells_in_bounds() {
        let mut c = cfg();
        c.kinds = FaultKindSet::adversarial();
        let plan = FaultPlan::generate(&c);
        let mut labels = std::collections::BTreeSet::new();
        for f in &plan.faults {
            labels.insert(f.kind.label());
            match f.kind {
                FaultKind::MemBurst { addr, bit, span } => {
                    assert!(addr.byte() <= 128 && bit < 64);
                    assert!((2..=BURST_MAX_SPAN).contains(&span));
                    assert!(!f.kind.guaranteed_recoverable());
                }
                FaultKind::StuckAt { addr, bit, .. } => {
                    assert!(addr.byte() <= 128 && bit < 64);
                    assert!(!f.kind.guaranteed_recoverable());
                }
                _ => {}
            }
        }
        // 64 draws over 6 kinds: every kind appears.
        assert_eq!(labels.len(), 6);
    }

    #[test]
    fn classic_all_set_excludes_adversarial_kinds() {
        let all = FaultKindSet::all();
        assert!(!all.burst && !all.stuck, "all() must stay hash-stable");
        for f in &FaultPlan::generate(&cfg()).faults {
            assert!(!matches!(
                f.kind,
                FaultKind::MemBurst { .. } | FaultKind::StuckAt { .. }
            ));
        }
    }

    #[test]
    fn storm_schedules_are_deterministic_clustered_and_bounded() {
        let mut c = cfg();
        c.storm = Some(FaultStorm {
            mean_gap: 100,
            max_burst: 4,
        });
        let plan = FaultPlan::generate(&c);
        assert_eq!(plan, FaultPlan::generate(&c));
        assert_ne!(plan, FaultPlan::generate(&cfg()), "storm reshapes timing");
        assert_eq!(plan.faults.len(), 64);
        let mut adjacent = 0;
        for (a, b) in plan.faults.iter().zip(plan.faults.iter().skip(1)) {
            assert!((1..10_000).contains(&a.at_progress));
            if b.at_progress == a.at_progress + 1 {
                adjacent += 1;
            }
        }
        assert!(
            adjacent > 0,
            "a storm schedule must cluster some faults at adjacent points"
        );
    }

    #[test]
    fn storm_spec_parses() {
        assert_eq!(FaultStorm::parse("200,6").unwrap(), FaultStorm::default());
        assert_eq!(
            FaultStorm::parse(" 10 , 2 ").unwrap(),
            FaultStorm {
                mean_gap: 10,
                max_burst: 2
            }
        );
        assert!(FaultStorm::parse("200").is_err());
        assert!(FaultStorm::parse("0,6").is_err());
        assert!(FaultStorm::parse("200,0").is_err());
        assert!(FaultStorm::parse("x,y").is_err());
    }

    #[test]
    fn stuck_cells_pin_bits_both_ways() {
        let hi = StuckCell {
            addr: WordAddr::new(0),
            bit: 3,
            stuck_one: true,
        };
        assert_eq!(hi.pin(0), 1 << 3);
        assert_eq!(hi.pin(u64::MAX), u64::MAX);
        let lo = StuckCell {
            addr: WordAddr::new(0),
            bit: 3,
            stuck_one: false,
        };
        assert_eq!(lo.pin(u64::MAX), !(1u64 << 3));
        assert_eq!(lo.pin(0), 0);
    }
}
