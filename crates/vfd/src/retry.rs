//! Deterministic retry/backoff/deadline policy.
//!
//! One implementation of exponential backoff with seeded jitter, shared by
//! every layer that retries environmental failures: the workflow runner
//! retrying a faulted task attempt (`dayu-workflow`), and the streaming
//! ingest service retrying connections and throttled sends
//! (`dayu-served`). Its jitter draws from [`ChaosRng`]
//! because it must be *deterministic*: reruns under the same seed pause for
//! the same nanoseconds, which is what keeps chaos-matrix and replay tests
//! byte-reproducible.
//!
//! The policy is error-agnostic. What counts as "retryable" is a property
//! of the caller's error type, so classification stays with the caller
//! (e.g. `dayu_workflow::retry::retryable` for driver I/O errors).

use crate::ChaosRng;

/// How a failed operation is retried.
#[derive(Clone, Debug, PartialEq)]
pub struct RetryPolicy {
    /// Maximum attempts per operation (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the second attempt, nanoseconds; doubles each
    /// further attempt.
    pub base_backoff_ns: u64,
    /// Upper bound on a single backoff pause, nanoseconds.
    pub max_backoff_ns: u64,
    /// Jitter as a fraction of the backoff (`0.25` adds up to +25%),
    /// drawn deterministically from the caller's seed so reruns are
    /// reproducible.
    pub jitter: f64,
    /// Per-operation wall-clock budget, nanoseconds. Checked cooperatively
    /// between attempts: once exceeded, no further attempt starts. `None`
    /// disables the deadline.
    pub deadline_ns: Option<u64>,
}

impl Default for RetryPolicy {
    /// Three attempts, 100 µs base backoff capped at 10 ms, 25% jitter,
    /// no deadline — fast enough for tests, shaped like production.
    fn default() -> Self {
        Self {
            max_attempts: 3,
            base_backoff_ns: 100_000,
            max_backoff_ns: 10_000_000,
            jitter: 0.25,
            deadline_ns: None,
        }
    }
}

impl RetryPolicy {
    /// No retries: an operation gets exactly one attempt.
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            base_backoff_ns: 0,
            max_backoff_ns: 0,
            jitter: 0.0,
            deadline_ns: None,
        }
    }

    /// Sets the attempt cap (clamped to at least 1).
    pub fn attempts(mut self, n: u32) -> Self {
        self.max_attempts = n.max(1);
        self
    }

    /// Sets the base and maximum backoff, nanoseconds.
    pub fn with_backoff(mut self, base_ns: u64, max_ns: u64) -> Self {
        self.base_backoff_ns = base_ns;
        self.max_backoff_ns = max_ns;
        self
    }

    /// Sets the per-operation deadline, nanoseconds.
    pub fn with_deadline_ns(mut self, ns: u64) -> Self {
        self.deadline_ns = Some(ns);
        self
    }

    /// Backoff before attempt `attempt + 1`, given that attempt `attempt`
    /// (1-based) just failed: exponential in the attempt number, capped,
    /// plus deterministic jitter derived from `jitter_seed`.
    pub fn backoff_ns(&self, attempt: u32, jitter_seed: u64) -> u64 {
        if self.base_backoff_ns == 0 {
            return 0;
        }
        let exp = attempt.saturating_sub(1).min(32);
        let base = self
            .base_backoff_ns
            .saturating_mul(1u64 << exp)
            .min(self.max_backoff_ns.max(self.base_backoff_ns));
        if self.jitter <= 0.0 {
            return base;
        }
        let mut rng =
            ChaosRng::new(jitter_seed ^ u64::from(attempt).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        base + (base as f64 * self.jitter * rng.next_f64()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy {
            jitter: 0.0,
            ..RetryPolicy::default()
        };
        assert_eq!(p.backoff_ns(1, 0), 100_000);
        assert_eq!(p.backoff_ns(2, 0), 200_000);
        assert_eq!(p.backoff_ns(3, 0), 400_000);
        assert_eq!(p.backoff_ns(60, 0), 10_000_000, "capped at max");
    }

    #[test]
    fn jitter_is_deterministic_and_bounded() {
        let p = RetryPolicy::default();
        let a = p.backoff_ns(2, 42);
        let b = p.backoff_ns(2, 42);
        assert_eq!(a, b, "same seed, same jitter");
        let base = 200_000;
        assert!((base..=base + base / 4).contains(&a), "{a}");
        assert_ne!(p.backoff_ns(2, 42), p.backoff_ns(2, 43));
    }

    #[test]
    fn none_policy_never_pauses() {
        let p = RetryPolicy::none();
        assert_eq!(p.max_attempts, 1);
        assert_eq!(p.backoff_ns(1, 7), 0);
    }

    #[test]
    fn builders() {
        let p = RetryPolicy::none()
            .attempts(5)
            .with_backoff(10, 100)
            .with_deadline_ns(1_000);
        assert_eq!(p.max_attempts, 5);
        assert_eq!(p.base_backoff_ns, 10);
        assert_eq!(p.max_backoff_ns, 100);
        assert_eq!(p.deadline_ns, Some(1_000));
        assert_eq!(RetryPolicy::none().attempts(0).max_attempts, 1);
    }
}
