//! The serving layer's structured error hierarchy.

use spmm_sparse::SparseError;
use std::fmt;
use std::time::Duration;

/// Everything that can go wrong between [`submit`] and a response.
///
/// Unlike `SparseError` — which describes *data* problems — these
/// variants describe *serving* outcomes: load shedding, missed
/// deadlines and broken cache entries are expected operating states a
/// client must be able to branch on, not strings to parse.
///
/// [`submit`]: crate::ServeEngine::submit
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum ServeError {
    /// Admission control rejected the request: the bounded queue was
    /// full, or the engine is shutting down. Back off and retry — the
    /// request was never enqueued.
    Overloaded {
        /// Jobs already waiting when the request was rejected.
        queue_depth: usize,
        /// The configured queue bound.
        queue_capacity: usize,
    },
    /// The per-request deadline elapsed while the request was still
    /// queued; it was abandoned before any work started.
    DeadlineExceeded {
        /// How long the request had waited when it was abandoned.
        waited: Duration,
    },
    /// Preparing the plan failed — the matrix violates the CSR
    /// invariants or is otherwise unusable.
    Prepare(SparseError),
    /// Executing a kernel failed — operand shapes don't match the
    /// request's matrix.
    Execute(SparseError),
    /// A prepare for this fingerprint panicked. The cached slot stays
    /// poisoned — every lookup reports this deterministically — until
    /// the entry is evicted, removed with
    /// [`PlanCache::remove`](crate::PlanCache::remove), or swept by
    /// [`PlanCache::clear_poisoned`](crate::PlanCache::clear_poisoned).
    /// The serving path quarantines such fingerprints and degrades to
    /// the row-wise fallback instead of surfacing this.
    PoisonedPlan,
    /// The worker thread processing this request panicked past its
    /// `catch_unwind` boundary (or died before responding). The request
    /// may or may not have executed; the engine keeps serving on the
    /// remaining workers.
    WorkerPanicked,
    /// The fingerprint's circuit breaker is open: the last
    /// [`failures`](ServeError::BreakerOpen::failures) consecutive
    /// prepares failed, so prepare attempts are suppressed until the
    /// cooldown elapses (then one half-open probe is admitted).
    BreakerOpen {
        /// Consecutive prepare failures recorded for the fingerprint.
        failures: u32,
        /// Time remaining until the half-open probe is admitted.
        retry_in: Duration,
    },
    /// The fingerprint's last prepare failed and its exponential
    /// backoff window has not elapsed; the attempt was suppressed
    /// without running the pipeline.
    RetryBackoff {
        /// Consecutive prepare failures recorded for the fingerprint.
        failures: u32,
        /// Time remaining in the current backoff window.
        retry_in: Duration,
    },
    /// A configuration value was rejected at build time — starting an
    /// engine with it would deadlock (for example a worker pool of
    /// zero threads can never drain the queue).
    InvalidConfig {
        /// The offending configuration field.
        field: &'static str,
        /// The rejected value.
        value: usize,
        /// The smallest accepted value.
        minimum: usize,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded {
                queue_depth,
                queue_capacity,
            } => write!(
                f,
                "overloaded: queue at {queue_depth}/{queue_capacity}, request rejected"
            ),
            ServeError::DeadlineExceeded { waited } => {
                write!(f, "deadline exceeded after waiting {waited:?}")
            }
            ServeError::Prepare(e) => write!(f, "plan preparation failed: {e}"),
            ServeError::Execute(e) => write!(f, "kernel execution failed: {e}"),
            ServeError::PoisonedPlan => {
                write!(f, "cached plan is poisoned (a prepare panicked)")
            }
            ServeError::WorkerPanicked => {
                write!(f, "worker panicked while processing the request")
            }
            ServeError::BreakerOpen { failures, retry_in } => write!(
                f,
                "circuit breaker open after {failures} consecutive prepare \
                 failures; half-open probe in {retry_in:?}"
            ),
            ServeError::RetryBackoff { failures, retry_in } => write!(
                f,
                "prepare retry suppressed ({failures} consecutive failures); \
                 backoff expires in {retry_in:?}"
            ),
            ServeError::InvalidConfig {
                field,
                value,
                minimum,
            } => write!(
                f,
                "invalid configuration: {field} = {value} (must be at least \
                 {minimum}) — starting with it would deadlock"
            ),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Prepare(e) | ServeError::Execute(e) => Some(e),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_actionable() {
        let e = ServeError::Overloaded {
            queue_depth: 64,
            queue_capacity: 64,
        };
        assert!(e.to_string().contains("64/64"), "{e}");
        let e = ServeError::DeadlineExceeded {
            waited: Duration::from_millis(7),
        };
        assert!(e.to_string().contains("deadline"), "{e}");
        assert!(ServeError::PoisonedPlan.to_string().contains("poisoned"));
        assert!(ServeError::WorkerPanicked.to_string().contains("panicked"));
        let e = ServeError::BreakerOpen {
            failures: 3,
            retry_in: Duration::from_millis(250),
        };
        assert!(e.to_string().contains("breaker open"), "{e}");
        assert!(e.to_string().contains('3'), "{e}");
        let e = ServeError::RetryBackoff {
            failures: 2,
            retry_in: Duration::from_millis(20),
        };
        assert!(e.to_string().contains("backoff"), "{e}");
        assert!(e.to_string().contains('2'), "{e}");
        let e = ServeError::InvalidConfig {
            field: "workers",
            value: 0,
            minimum: 1,
        };
        assert!(e.to_string().contains("workers = 0"), "{e}");
        assert!(e.to_string().contains("at least 1"), "{e}");
    }

    #[test]
    fn source_chains_to_sparse_error() {
        use std::error::Error;
        let inner = SparseError::InvalidStructure("bad rowptr".into());
        for e in [
            ServeError::Prepare(inner.clone()),
            ServeError::Execute(inner.clone()),
        ] {
            assert_eq!(e.source().unwrap().to_string(), inner.to_string());
        }
        for e in [
            ServeError::PoisonedPlan,
            ServeError::WorkerPanicked,
            ServeError::BreakerOpen {
                failures: 1,
                retry_in: Duration::ZERO,
            },
            ServeError::RetryBackoff {
                failures: 1,
                retry_in: Duration::ZERO,
            },
            ServeError::InvalidConfig {
                field: "queue_capacity",
                value: 0,
                minimum: 1,
            },
        ] {
            assert!(e.source().is_none(), "{e} must be a leaf error");
        }
    }
}
