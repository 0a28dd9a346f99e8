//! # acr-ckpt — backward error recovery framework
//!
//! Log-based incremental in-memory checkpointing with global and local
//! coordinated schemes, a fail-stop error model with detection latency, and
//! rollback/recovery — the BER baseline ACR builds on (Sections II-A, V-E
//! of the paper; after ReVive/Rebound/SafetyNet).
//!
//! The central type is [`BerEngine`]: it owns an `acr-sim` machine, drives
//! it between checkpoint triggers and error events, performs coordinated
//! checkpoints (dirty-line flush + old-value logging + register dump),
//! injects errors, and recovers by rolling the machine back to the most
//! recent *safe* checkpoint. The engine is generic over an
//! [`OmissionPolicy`] — the seam where ACR plugs in:
//!
//! * [`NoOmission`] gives the plain `Ckpt` baseline configurations,
//! * `acr::AcrPolicy` (in the `acr` crate) omits recomputable values from
//!   the log and regenerates them during recovery, giving the `ReCkpt`
//!   configurations.
//!
//! ## Correctness oracle
//!
//! With [`BerConfig::oracle`] enabled the engine snapshots functional
//! memory at every checkpoint (zero simulated cost) and checks, after
//! every recovery, that the restored words are bit-identical to the
//! snapshot — with and without omission. While no scheduled error carries
//! a corruption (and no recovery fault is planned) a mismatch can only be
//! an engine bug, so the check asserts; otherwise it counts divergent
//! words, because a memory corruption can legitimately defeat the log.
//! Property tests in the workspace fuzz programs and error schedules over
//! this invariant.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod checkpoint;
mod engine;
pub mod errors;
pub mod frequency;
mod inject;
mod ledger;
mod monitor;
pub mod parallel;
mod policy;
mod postmortem;
mod recovery;
mod report;
mod schedule;
mod shrink;
mod soak;

pub use checkpoint::CheckpointRecord;
pub use engine::{BerConfig, BerEngine, ResilienceConfig, Scheme, SecondaryStorage};
pub use errors::CkptError;
pub use inject::{
    run_campaign, run_campaign_loads, CampaignConfig, CampaignError, CampaignReport,
    CampaignTotals, CaseOutcome, FaultCaseRecord,
};
pub use ledger::{DecisionLedger, OmitReason, ReplayCost, NUM_REASONS, RANGE_BYTES};
pub use monitor::{BreachRecord, InvariantSummary, MonitorCounters};
pub use parallel::{available_jobs, ParallelRunner, JOBS_ENV};
pub use policy::{NoOmission, OmissionPolicy, Recomputed};
pub use postmortem::{
    CaseEnd, EscalationStep, EventRecord, PostmortemBundle, RingDigest, POSTMORTEM_SCHEMA, TRIGGERS,
};
pub use recovery::MAX_REPLAY_RETRIES;
pub use report::{BerReport, IntervalRecord, RecoveryRecord};
pub use schedule::{detection_latency, uniform_points, ErrorSchedule, ScheduledError};
pub use shrink::{
    dense_fault_plan, fault_from_json, fault_to_json, replay_case, shrink_case, CaseFailure,
    ReproDoc, ShrinkConfig, ShrinkOutcome, REPRO_SCHEMA,
};
pub use soak::{
    chunk_config, chunk_seed, default_models, default_resilience, run_soak, SoakCell, SoakCombo,
    SoakCursor, SoakGrid, SoakModel, SoakOutcome, SoakPostmortem, SoakResilience,
    SOAK_CURSOR_SCHEMA,
};
