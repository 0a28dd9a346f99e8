//! Checkpoint and error scheduling in progress units.
//!
//! Progress is measured in total retired instructions, which is identical
//! across the `No_Ckpt`, `Ckpt` and `ReCkpt` configurations of the same
//! program — the natural simulator analogue of the paper's "checkpoints
//! (and errors) uniformly distributed over the execution time".

use acr_mem::CoreId;
use acr_sim::{Fault, FaultKind};

use crate::CkptError;

/// Returns `n` points uniformly distributed over `(0, total)`:
/// `i * total / (n + 1)` for `i = 1..=n`.
pub fn uniform_points(total: u64, n: u32) -> Vec<u64> {
    (1..=u64::from(n))
        .map(|i| i * total / (u64::from(n) + 1))
        .collect()
}

/// Detection latency in progress units: `frac` of the checkpoint period
/// that `num_checkpoints` uniform checkpoints over `total` progress imply.
///
/// # Errors
///
/// [`CkptError::InvalidLatency`] unless `frac` is within `[0, 1]` (the
/// paper assumes detection latency no longer than the checkpoint period,
/// Section II-A).
pub fn detection_latency(total: u64, num_checkpoints: u32, frac: f64) -> Result<u64, CkptError> {
    if !(0.0..=1.0).contains(&frac) {
        return Err(CkptError::InvalidLatency { frac });
    }
    let period = total / (u64::from(num_checkpoints) + 1);
    Ok((period as f64 * frac) as u64)
}

/// One error of the fail-stop model: it occurs on `core` once total
/// retired instructions reach `at_progress`, and is detected one
/// [`ErrorSchedule::detection_latency`] later (a crash immediately).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduledError {
    /// Occurrence point in retired instructions.
    pub at_progress: u64,
    /// Core the error strikes (taken modulo the machine's core count).
    pub core: CoreId,
    /// State corruption applied at occurrence. `None` is an error that
    /// corrupts nothing — the overhead experiments' model, where only the
    /// rollback's cost matters.
    pub corruption: Option<FaultKind>,
}

impl From<Fault> for ScheduledError {
    fn from(f: Fault) -> Self {
        ScheduledError {
            at_progress: f.at_progress,
            core: f.core,
            corruption: Some(f.kind),
        }
    }
}

/// An error schedule: the errors plus their detection latency, both in
/// progress units. Detection latency must not exceed the checkpoint period
/// for the two-checkpoint retention to suffice (Section II-A);
/// [`detection_latency`] enforces this.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ErrorSchedule {
    /// The errors, in any order.
    pub errors: Vec<ScheduledError>,
    /// Progress between an error's occurrence and its detection.
    pub detection_latency: u64,
}

impl ErrorSchedule {
    /// `num_errors` corruption-free errors uniformly distributed over
    /// `total` progress (error `i` on core `i`), detected after
    /// `latency_frac` of the checkpoint period implied by
    /// `num_checkpoints`.
    ///
    /// # Panics
    ///
    /// Panics if `latency_frac` is not within `[0, 1]`. Callers handling
    /// user input should use [`ErrorSchedule::try_uniform`].
    pub fn uniform(total: u64, num_errors: u32, num_checkpoints: u32, latency_frac: f64) -> Self {
        Self::try_uniform(total, num_errors, num_checkpoints, latency_frac)
            .expect("detection latency must be at most one checkpoint period")
    }

    /// Fallible form of [`ErrorSchedule::uniform`]: rejects an out-of-range
    /// `latency_frac` with a typed error instead of panicking.
    pub fn try_uniform(
        total: u64,
        num_errors: u32,
        num_checkpoints: u32,
        latency_frac: f64,
    ) -> Result<Self, CkptError> {
        let latency = detection_latency(total, num_checkpoints, latency_frac)?;
        Ok(Self::at(&uniform_points(total, num_errors), latency))
    }

    /// No errors (the `*_NE` configurations).
    pub fn none() -> Self {
        ErrorSchedule::default()
    }

    /// Corruption-free errors at the given points (error `i` on core
    /// `i`), detected `detection_latency` later.
    pub(crate) fn at(points: &[u64], detection_latency: u64) -> Self {
        ErrorSchedule {
            errors: (0..)
                .zip(points)
                .map(|(i, &at_progress)| ScheduledError {
                    at_progress,
                    core: CoreId(i),
                    corruption: None,
                })
                .collect(),
            detection_latency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_points_are_interior_and_even() {
        let p = uniform_points(100, 4);
        assert_eq!(p, vec![20, 40, 60, 80]);
        assert!(uniform_points(100, 0).is_empty());
    }

    #[test]
    fn uniform_schedule_latency_scales_with_period() {
        let s = ErrorSchedule::uniform(1000, 2, 9, 0.5);
        let at: Vec<u64> = s.errors.iter().map(|e| e.at_progress).collect();
        assert_eq!(at, vec![333, 666]);
        assert_eq!(s.errors[1].core, CoreId(1));
        assert!(s.errors.iter().all(|e| e.corruption.is_none()));
        assert_eq!(s.detection_latency, 50); // period 100, half
    }

    #[test]
    #[should_panic(expected = "checkpoint period")]
    fn excessive_latency_rejected() {
        let _ = ErrorSchedule::uniform(1000, 1, 9, 1.5);
    }

    #[test]
    fn try_uniform_reports_typed_error() {
        let err = ErrorSchedule::try_uniform(1000, 1, 9, 1.5).unwrap_err();
        assert!(matches!(err, CkptError::InvalidLatency { .. }));
        assert!(ErrorSchedule::try_uniform(1000, 1, 9, 1.0).is_ok());
        assert!(detection_latency(1000, 9, -0.1).is_err());
    }

    #[test]
    fn a_fault_is_an_error_that_corrupts() {
        let f = Fault {
            at_progress: 7,
            core: CoreId(3),
            kind: FaultKind::Crash,
        };
        let e = ScheduledError::from(f);
        assert_eq!((e.at_progress, e.core), (7, CoreId(3)));
        assert_eq!(e.corruption, Some(FaultKind::Crash));
    }

    #[test]
    fn none_is_empty() {
        let s = ErrorSchedule::none();
        assert!(s.errors.is_empty());
    }
}
