//! Long-horizon soak campaigns over a workload × fault-model ×
//! resilience grid, with a resumable cursor.
//!
//! A *soak run* is an open-ended sequence of bounded fault campaigns
//! ("chunks"): chunk `i` exercises grid combo `i % combos`, with a
//! per-chunk seed mixed deterministically from the soak seed — so the
//! case stream is reproducible from `(seed, chunk_cases, grid)` alone,
//! independent of how many invocations it took to get there. The driver
//! is bounded by the caller (case budget, wall-clock budget) through the
//! `keep_going` callback; the wall clock may *stop* a soak but can never
//! change what any chunk computes.
//!
//! Every finished case is folded into the four-way outcome matrix the
//! triage workflow keys on — `recovered` / `due` (detected unrecoverable
//! error) / `sdc` (silent data corruption) / `hang` (recovery-watchdog
//! abort) — per combo and in total, and every non-recovered case keeps
//! its [`PostmortemBundle`]. The cursor serializes to a small JSON
//! document (`acr.soak-cursor.v1`) carrying the matrix and a per-combo
//! hash chain, so a resumed soak can prove it continued the exact same
//! stream.

use std::fmt::Write as _;

use acr_sim::{FaultKindSet, FaultStorm};
use acr_trace::{
    read_document, render_json, Coder, Fnv1a, JsonError, JsonResult, Layout, MetricsRegistry,
    INLINE,
};

use crate::inject::{CampaignConfig, CampaignError, CampaignReport};
use crate::postmortem::PostmortemBundle;

/// Cursor document schema identifier.
pub const SOAK_CURSOR_SCHEMA: &str = "acr.soak-cursor.v1";

/// Top level of the cursor, repro and postmortem documents: one member
/// per line, indented two spaces.
pub(crate) const TOP: Layout = Layout::new("\n  ", ",\n  ", ": ", "\n", "\n");

/// An array with one element per line, indented four spaces.
pub(crate) const BLOCK: Layout = Layout::new("\n    ", ",\n    ", ": ", "\n  ", "\n  ");

/// One fault-model preset of the soak grid: a kind set plus an optional
/// storm schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakModel {
    /// Preset label (stable; part of the grid fingerprint).
    pub label: String,
    /// Fault kinds the preset draws from.
    pub kinds: FaultKindSet,
    /// Temporal clustering, if any.
    pub storm: Option<FaultStorm>,
}

/// The default fault-model presets, from benign to adversarial.
pub fn default_models() -> Vec<SoakModel> {
    vec![
        SoakModel {
            label: "recoverable".to_string(),
            kinds: FaultKindSet::recoverable(),
            storm: None,
        },
        SoakModel {
            label: "classic".to_string(),
            kinds: FaultKindSet::all(),
            storm: None,
        },
        SoakModel {
            label: "adversarial".to_string(),
            kinds: FaultKindSet::adversarial(),
            storm: None,
        },
        SoakModel {
            label: "adversarial-storm".to_string(),
            kinds: FaultKindSet::adversarial(),
            storm: Some(FaultStorm::default()),
        },
        SoakModel {
            label: "stuck".to_string(),
            kinds: FaultKindSet {
                reg: false,
                pc: false,
                mem: false,
                burst: false,
                stuck: true,
                crash: false,
            },
            storm: None,
        },
    ]
}

/// One resilience preset of the soak grid (maps onto
/// [`crate::ResilienceConfig`] knobs of the per-case engines).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SoakResilience {
    /// Preset label (stable; part of the grid fingerprint).
    pub label: String,
    /// Strike each case's first recovery with a nested recovery-window
    /// fault.
    pub recovery_faults: bool,
    /// Checkpoint generations retained.
    pub generations: u32,
    /// Recovery-watchdog escalation budget (0 = off).
    pub watchdog_budget_cycles: u64,
}

/// The default resilience presets: plain, nested-fault, and nested-fault
/// under a generous watchdog.
pub fn default_resilience() -> Vec<SoakResilience> {
    vec![
        SoakResilience {
            label: "baseline".to_string(),
            recovery_faults: false,
            generations: 1,
            watchdog_budget_cycles: 0,
        },
        SoakResilience {
            label: "nested".to_string(),
            recovery_faults: true,
            generations: 2,
            watchdog_budget_cycles: 0,
        },
        SoakResilience {
            label: "watchdog".to_string(),
            recovery_faults: true,
            generations: 2,
            // Generous: real escalations finish well under this; only a
            // genuinely hung recovery trips it into a `hang` postmortem.
            watchdog_budget_cycles: 50_000_000,
        },
    ]
}

/// One cell of the soak grid: workload × fault model × resilience.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakCombo {
    /// Workload name (the driver's `run_chunk` resolves it to a program).
    pub workload: String,
    /// Fault-model preset.
    pub model: SoakModel,
    /// Resilience preset.
    pub resilience: SoakResilience,
}

impl SoakCombo {
    /// `workload/model/resilience`, the combo's display key.
    pub fn key(&self) -> String {
        format!(
            "{}/{}/{}",
            self.workload, self.model.label, self.resilience.label
        )
    }
}

/// The full soak grid, workload-major then model then resilience — the
/// chunk schedule walks it round-robin.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakGrid {
    /// Every combo, in schedule order.
    pub combos: Vec<SoakCombo>,
}

impl SoakGrid {
    /// Builds the cross product `workloads × models × presets`.
    pub fn new(workloads: &[String], models: &[SoakModel], presets: &[SoakResilience]) -> SoakGrid {
        let mut combos = Vec::with_capacity(workloads.len() * models.len() * presets.len());
        for w in workloads {
            for m in models {
                for r in presets {
                    combos.push(SoakCombo {
                        workload: w.clone(),
                        model: m.clone(),
                        resilience: r.clone(),
                    });
                }
            }
        }
        SoakGrid { combos }
    }

    /// FNV-1a fingerprint over every combo's identity — labels *and* the
    /// numbers behind them, so renaming or retuning a preset invalidates
    /// stale cursors instead of silently mixing streams.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv1a::new();
        for c in &self.combos {
            h.write(c.workload.as_bytes());
            h.write(c.model.label.as_bytes());
            h.write(&[
                u8::from(c.model.kinds.reg),
                u8::from(c.model.kinds.pc),
                u8::from(c.model.kinds.mem),
                u8::from(c.model.kinds.burst),
                u8::from(c.model.kinds.stuck),
                u8::from(c.model.kinds.crash),
            ]);
            match c.model.storm {
                Some(s) => {
                    h.write_u64(s.mean_gap);
                    h.write_u64(u64::from(s.max_burst));
                }
                None => h.write_u64(u64::MAX),
            }
            h.write(c.resilience.label.as_bytes());
            h.write_u64(u64::from(c.resilience.recovery_faults));
            h.write_u64(u64::from(c.resilience.generations));
            h.write_u64(c.resilience.watchdog_budget_cycles);
        }
        h.finish()
    }
}

/// Cumulative outcome matrix of one grid combo.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SoakCell {
    /// Combo key (`workload/model/resilience`).
    pub key: String,
    /// Cases finished.
    pub cases: u64,
    /// Cases that converged to the reference.
    pub recovered: u64,
    /// Detected unrecoverable errors.
    pub due: u64,
    /// Silent data corruptions — a soak's red flag.
    pub sdc: u64,
    /// Recovery-watchdog aborts.
    pub hang: u64,
    /// FNV-1a chain over the combo's chunk content hashes, in chunk
    /// order — two soaks followed the same stream iff their chains agree.
    pub hash_chain: u64,
}

impl SoakCell {
    fn new(key: String) -> SoakCell {
        SoakCell {
            key,
            ..SoakCell::default()
        }
    }
}

/// The resumable soak state: where the chunk schedule stands plus the
/// cumulative matrix. Serializes to `acr.soak-cursor.v1` JSON.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SoakCursor {
    /// Soak seed every chunk seed is mixed from.
    pub seed: u64,
    /// Cases per chunk.
    pub chunk_cases: u32,
    /// Fingerprint of the grid this cursor belongs to.
    pub fingerprint: u64,
    /// Chunks finished so far (also the next chunk index).
    pub chunks_done: u64,
    /// Per-combo matrices, in grid order.
    pub cells: Vec<SoakCell>,
}

impl SoakCursor {
    /// A fresh cursor at the start of `grid`'s schedule.
    pub fn new(grid: &SoakGrid, seed: u64, chunk_cases: u32) -> SoakCursor {
        SoakCursor {
            seed,
            chunk_cases,
            fingerprint: grid.fingerprint(),
            chunks_done: 0,
            cells: grid.combos.iter().map(|c| SoakCell::new(c.key())).collect(),
        }
    }

    /// Total `(cases, recovered, due, sdc, hang)` across all combos.
    pub fn totals(&self) -> (u64, u64, u64, u64, u64) {
        self.cells.iter().fold((0, 0, 0, 0, 0), |acc, c| {
            (
                acc.0 + c.cases,
                acc.1 + c.recovered,
                acc.2 + c.due,
                acc.3 + c.sdc,
                acc.4 + c.hang,
            )
        })
    }

    /// The outcome matrix as an aligned text table (combos with no cases
    /// yet are shown as pending).
    pub fn matrix(&self) -> String {
        let width = self
            .cells
            .iter()
            .map(|c| c.key.len())
            .max()
            .unwrap_or(0)
            .max("combo".len());
        let mut out = format!(
            "  {:<width$}  {:>8}  {:>9}  {:>6}  {:>5}  {:>5}\n",
            "combo", "cases", "recovered", "due", "sdc", "hang"
        );
        for c in &self.cells {
            let _ = writeln!(
                out,
                "  {:<width$}  {:>8}  {:>9}  {:>6}  {:>5}  {:>5}",
                c.key, c.cases, c.recovered, c.due, c.sdc, c.hang
            );
        }
        let (cases, recovered, due, sdc, hang) = self.totals();
        let _ = writeln!(
            out,
            "  {:<width$}  {:>8}  {:>9}  {:>6}  {:>5}  {:>5}",
            "total", cases, recovered, due, sdc, hang
        );
        out
    }

    /// The cursor's fields, in document order (see [`Coder`]); `u64`s
    /// that can exceed 2^53 are hex strings.
    fn code(&mut self, c: &mut Coder<'_, '_>) -> JsonResult {
        c.hex("seed", &mut self.seed, 0)?;
        c.uint("chunk_cases", &mut self.chunk_cases)?;
        c.hex("fingerprint", &mut self.fingerprint, 16)?;
        c.uint("chunks_done", &mut self.chunks_done)?;
        c.list("cells", BLOCK, INLINE, &mut self.cells, &mut |c, cell| {
            c.string("key", &mut cell.key)?;
            c.uint("cases", &mut cell.cases)?;
            c.uint("recovered", &mut cell.recovered)?;
            c.uint("due", &mut cell.due)?;
            c.uint("sdc", &mut cell.sdc)?;
            c.uint("hang", &mut cell.hang)?;
            c.hex("hash_chain", &mut cell.hash_chain, 16)
        })
    }

    /// Serializes the cursor (deterministic, one cell per line).
    pub fn to_json(&self) -> String {
        let body = &mut |c: &mut Coder<'_, '_>| self.clone().code(c);
        render_json(Some(SOAK_CURSOR_SCHEMA), TOP, body) + "\n"
    }

    /// Decodes a cursor rendered by [`SoakCursor::to_json`]. Whether it
    /// belongs to a grid is [`SoakCursor::check_grid`]'s question.
    ///
    /// # Errors
    ///
    /// A [`JsonError`] naming the first bad field.
    pub fn from_json(text: &str) -> Result<SoakCursor, JsonError> {
        let mut cursor = SoakCursor::default();
        read_document(text, SOAK_CURSOR_SCHEMA, &mut |c| cursor.code(c))?;
        Ok(cursor)
    }

    /// Checks that this cursor belongs to `grid`: fingerprint and cell
    /// keys must match, or resuming from it would splice two unrelated
    /// streams.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first mismatch.
    pub fn check_grid(&self, grid: &SoakGrid) -> Result<(), String> {
        if self.fingerprint != grid.fingerprint() {
            return Err(format!(
                "cursor fingerprint {:#018x} does not match this \
                 grid ({:#018x}) — workloads, models or presets changed",
                self.fingerprint,
                grid.fingerprint()
            ));
        }
        if self.cells.len() != grid.combos.len() {
            return Err(format!(
                "cursor has {} cells, grid has {} combos",
                self.cells.len(),
                grid.combos.len()
            ));
        }
        for (c, combo) in self.cells.iter().zip(&grid.combos) {
            if c.key != combo.key() {
                return Err(format!(
                    "cursor cell `{}` does not match grid combo `{}`",
                    c.key,
                    combo.key()
                ));
            }
        }
        Ok(())
    }
}

/// Mixes the soak seed and a chunk index into that chunk's campaign seed
/// (splitmix64 finalizer — avalanche on every bit, pure integer).
pub fn chunk_seed(seed: u64, chunk: u64) -> u64 {
    let mut z = seed ^ chunk.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The campaign configuration of one soak chunk: the caller's base config
/// with the chunk's seed/count and the combo's model + resilience knobs
/// substituted in.
pub fn chunk_config(
    base: &CampaignConfig,
    cursor: &SoakCursor,
    combo: &SoakCombo,
    chunk: u64,
) -> CampaignConfig {
    CampaignConfig {
        seed: chunk_seed(cursor.seed, chunk),
        count: cursor.chunk_cases,
        kinds: combo.model.kinds,
        storm: combo.model.storm,
        recovery_faults: combo.resilience.recovery_faults,
        generations: combo.resilience.generations,
        watchdog_budget_cycles: combo.resilience.watchdog_budget_cycles,
        ..base.clone()
    }
}

/// One non-recovered case's forensics, tagged with where in the soak it
/// happened.
#[derive(Debug, Clone)]
pub struct SoakPostmortem {
    /// Workload of the chunk.
    pub workload: String,
    /// Chunk index.
    pub chunk: u64,
    /// The case's forensic bundle.
    pub bundle: PostmortemBundle,
}

/// What one soak invocation accomplished.
#[derive(Debug, Clone)]
pub struct SoakOutcome {
    /// The advanced cursor (serialize it to resume later).
    pub cursor: SoakCursor,
    /// Chunks run by this invocation.
    pub chunks_run: u64,
    /// `soak.*` counters for this invocation (not cumulative).
    pub metrics: MetricsRegistry,
    /// Every non-recovered case's bundle, in chunk order.
    pub postmortems: Vec<SoakPostmortem>,
    /// One line per chunk, in chunk order.
    pub log: String,
}

/// Drives the soak schedule from `cursor` until `keep_going` says stop
/// (it is consulted *before* each chunk, so budgets are chunk-granular
/// and a resumed soak continues the exact same stream). `run_chunk`
/// executes one campaign — the caller resolves the combo's workload to a
/// program and policy.
///
/// # Errors
///
/// Propagates the first chunk whose *fault-free baseline* fails
/// ([`CampaignError`]); failing fault cases are data, not errors.
pub fn run_soak<F, S>(
    grid: &SoakGrid,
    base: &CampaignConfig,
    mut cursor: SoakCursor,
    mut run_chunk: F,
    mut keep_going: S,
) -> Result<SoakOutcome, CampaignError>
where
    F: FnMut(&SoakCombo, &CampaignConfig) -> Result<CampaignReport, CampaignError>,
    S: FnMut(&SoakCursor) -> bool,
{
    assert_eq!(
        cursor.fingerprint,
        grid.fingerprint(),
        "cursor does not belong to this grid (validate with SoakCursor::check_grid)"
    );
    let mut metrics = MetricsRegistry::new();
    let mut postmortems = Vec::new();
    let mut log = String::new();
    let mut chunks_run = 0u64;
    while keep_going(&cursor) {
        let chunk = cursor.chunks_done;
        let slot = (chunk % grid.combos.len() as u64) as usize;
        let combo = &grid.combos[slot];
        let cfg = chunk_config(base, &cursor, combo, chunk);
        let report = run_chunk(combo, &cfg)?;
        let [recovered, due, sdc, hang] = report.totals().classes;
        let cell = &mut cursor.cells[slot];
        cell.cases += report.cases.len() as u64;
        cell.recovered += recovered;
        cell.due += due;
        cell.sdc += sdc;
        cell.hang += hang;
        let mut h = Fnv1a::new();
        h.write_u64(cell.hash_chain);
        h.write_u64(report.content_hash());
        cell.hash_chain = h.finish();
        metrics.add("soak.chunks", 1);
        metrics.add("soak.cases", report.cases.len() as u64);
        metrics.add("soak.recovered", recovered);
        metrics.add("soak.due", due);
        metrics.add("soak.sdc", sdc);
        metrics.add("soak.hang", hang);
        metrics.add(
            &format!("soak.combo.{}.cases", combo.key()),
            report.cases.len() as u64,
        );
        let _ = writeln!(
            log,
            "chunk {chunk:04} {} seed {:#018x} cases {}: recovered {recovered} \
             due {due} sdc {sdc} hang {hang}",
            combo.key(),
            cfg.seed,
            report.cases.len(),
        );
        for bundle in report.postmortems {
            postmortems.push(SoakPostmortem {
                workload: combo.workload.clone(),
                chunk,
                bundle,
            });
        }
        cursor.chunks_done += 1;
        chunks_run += 1;
    }
    Ok(SoakOutcome {
        cursor,
        chunks_run,
        metrics,
        postmortems,
        log,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::run_campaign;
    use crate::policy::NoOmission;
    use acr_isa::{AluOp, Program, ProgramBuilder, Reg};
    use acr_sim::MachineConfig;

    fn kernel() -> Program {
        let mut b = ProgramBuilder::new(2);
        b.set_mem_bytes(1 << 18);
        for t in 0..2u32 {
            let base = u64::from(t) * 32768;
            let tb = b.thread(t);
            tb.imm(Reg(10), base);
            let l = tb.begin_loop(Reg(1), Reg(2), 80);
            tb.alui(AluOp::Mul, Reg(3), Reg(1), 13);
            tb.alui(AluOp::Mul, Reg(4), Reg(1), 8);
            tb.alu(AluOp::Add, Reg(5), Reg(10), Reg(4));
            tb.store(Reg(3), Reg(5), 0);
            tb.end_loop(l);
            tb.halt();
        }
        b.build()
    }

    fn grid() -> SoakGrid {
        SoakGrid::new(
            &["kernel".to_string()],
            &default_models()[..3],
            &default_resilience()[..2],
        )
    }

    fn base() -> CampaignConfig {
        CampaignConfig {
            num_checkpoints: 5,
            ..CampaignConfig::default()
        }
    }

    fn drive(cursor: SoakCursor, chunks: u64) -> SoakOutcome {
        let p = kernel();
        let g = grid();
        let stop_at = cursor.chunks_done + chunks;
        run_soak(
            &g,
            &base(),
            cursor,
            |_, cfg| run_campaign(&p, MachineConfig::with_cores(2), cfg, || NoOmission),
            |c| c.chunks_done < stop_at,
        )
        .expect("soak runs")
    }

    #[test]
    fn grid_and_fingerprint_are_deterministic() {
        let a = grid();
        let b = grid();
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
        assert_eq!(a.combos.len(), 6);
        // Reordering presets is a different soak.
        let flipped = SoakGrid {
            combos: a.combos.iter().rev().cloned().collect(),
        };
        assert_ne!(a.fingerprint(), flipped.fingerprint());
    }

    #[test]
    fn chunk_seeds_avalanche() {
        let s: Vec<u64> = (0..8).map(|i| chunk_seed(42, i)).collect();
        for (i, a) in s.iter().enumerate() {
            for b in &s[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert_ne!(chunk_seed(42, 0), chunk_seed(43, 0));
    }

    #[test]
    fn soak_classifies_every_case_and_logs_chunks() {
        let g = grid();
        let cursor = SoakCursor::new(&g, 42, 5);
        let out = drive(cursor, 6);
        assert_eq!(out.chunks_run, 6);
        let (cases, recovered, due, sdc, hang) = out.cursor.totals();
        assert_eq!(cases, 30);
        assert_eq!(cases, recovered + due + sdc + hang);
        assert_eq!(sdc, 0, "{}", out.cursor.matrix());
        assert_eq!(out.metrics.get("soak.cases"), Some(30));
        assert_eq!(out.log.lines().count(), 6);
        // Every combo ran exactly once.
        assert!(out.cursor.cells.iter().all(|c| c.cases == 5));
        // Non-recovered cases carry bundles.
        assert_eq!(out.postmortems.len() as u64, due + sdc + hang);
    }

    #[test]
    fn resumed_soak_continues_the_same_stream() {
        let g = grid();
        let straight = drive(SoakCursor::new(&g, 7, 4), 6);

        let first = drive(SoakCursor::new(&g, 7, 4), 3);
        // Round-trip through the serialized cursor, as a real resume does.
        let parsed = SoakCursor::from_json(&first.cursor.to_json()).expect("cursor parses");
        parsed.check_grid(&g).expect("cursor belongs to the grid");
        assert_eq!(parsed, first.cursor);
        let second = drive(parsed, 3);

        assert_eq!(second.cursor, straight.cursor);
        assert_eq!(
            second
                .cursor
                .cells
                .iter()
                .map(|c| c.hash_chain)
                .collect::<Vec<_>>(),
            straight
                .cursor
                .cells
                .iter()
                .map(|c| c.hash_chain)
                .collect::<Vec<_>>(),
        );
    }

    #[test]
    fn stale_cursors_are_rejected() {
        let g = grid();
        let cursor = SoakCursor::new(&g, 42, 5);
        let other = SoakGrid::new(
            &["other".to_string()],
            &default_models()[..1],
            &default_resilience()[..1],
        );
        let err = cursor.check_grid(&other).unwrap_err();
        assert!(err.contains("fingerprint"), "{err}");
        let err = SoakCursor::from_json("{}").unwrap_err();
        assert_eq!(err.to_string(), "schema: missing");
    }
}
