//! Time-ordering support for DaYu's "time-sensitive" traces.
//!
//! The paper stresses that DaYu's data is *time-ordered*: FTG/SDG layouts are
//! arranged by event start/end times and the overhead evaluation reports the
//! cost of keeping traces time-sensitive. All records therefore carry
//! [`Timestamp`]s in nanoseconds.
//!
//! Two clock sources implement [`Clock`]:
//!
//! * [`RealClock`] — monotonic wall time, used when measuring the profiler's
//!   actual overhead (Figures 9 and 10).
//! * [`ManualClock`] — an explicitly advanced virtual clock, used by the
//!   discrete-event replay in `dayu-sim` and by deterministic tests.

use crate::json::{ToJson, Writer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A point in time, in nanoseconds from an arbitrary per-trace origin.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Timestamp(pub u64);

/// Written as its bare nanosecond count.
impl ToJson for Timestamp {
    fn write_json(&self, w: &mut Writer) {
        w.u64(self.0);
    }
}

impl Timestamp {
    /// The trace origin.
    pub const ZERO: Timestamp = Timestamp(0);

    /// Nanoseconds since the trace origin.
    pub fn nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the trace origin, as a float (for reporting).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating difference `self - earlier` in nanoseconds.
    pub fn since(self, earlier: Timestamp) -> u64 {
        self.0.saturating_sub(earlier.0)
    }

    /// This timestamp advanced by `nanos`.
    pub fn plus(self, nanos: u64) -> Timestamp {
        Timestamp(self.0 + nanos)
    }
}

/// A monotonic time source for stamping trace records.
///
/// Implementations must be cheap and thread-safe: the VFD profiler calls
/// [`Clock::now`] twice per I/O operation on the application's critical path.
pub trait Clock: Send + Sync {
    /// Current time relative to the clock's origin.
    fn now(&self) -> Timestamp;
}

/// Monotonic wall-clock time relative to construction.
#[derive(Debug)]
pub struct RealClock {
    origin: Instant,
}

impl RealClock {
    /// A clock whose origin is "now".
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
        }
    }
}

impl Default for RealClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for RealClock {
    fn now(&self) -> Timestamp {
        Timestamp(self.origin.elapsed().as_nanos() as u64)
    }
}

/// An explicitly advanced virtual clock.
///
/// Cloning shares the underlying counter, so a workload driver and the
/// profiler it feeds observe the same virtual time.
#[derive(Debug, Clone, Default)]
pub struct ManualClock {
    nanos: Arc<AtomicU64>,
}

impl ManualClock {
    /// A clock starting at the origin.
    pub fn new() -> Self {
        Self::default()
    }

    /// Advances the clock by `nanos` and returns the new time.
    pub fn advance(&self, nanos: u64) -> Timestamp {
        Timestamp(self.nanos.fetch_add(nanos, Ordering::Relaxed) + nanos)
    }
}

impl Clock for ManualClock {
    fn now(&self) -> Timestamp {
        Timestamp(self.nanos.load(Ordering::Relaxed))
    }
}

/// An interval `[start, end]` stamped on lifetimes (object lifetimes in
/// Table I, file lifetimes in Table II).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Interval {
    /// When the resource was acquired/opened.
    pub start: Timestamp,
    /// When the resource was released/closed.
    pub end: Timestamp,
}

crate::to_json!(Interval { start, end });

impl Interval {
    /// An interval covering `[start, end]`.
    pub fn new(start: Timestamp, end: Timestamp) -> Self {
        Self { start, end }
    }

    /// Duration in nanoseconds (saturating).
    pub fn duration(&self) -> u64 {
        self.end.since(self.start)
    }

    /// Whether `t` falls within the closed interval.
    pub fn contains(&self, t: Timestamp) -> bool {
        self.start <= t && t <= self.end
    }

    /// Whether two intervals overlap (closed-interval semantics).
    pub fn overlaps(&self, other: &Interval) -> bool {
        self.start <= other.end && other.start <= self.end
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_clock_is_monotonic() {
        let c = RealClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }

    #[test]
    fn manual_clock_advances() {
        let c = ManualClock::new();
        assert_eq!(c.now(), Timestamp::ZERO);
        assert_eq!(c.advance(5), Timestamp(5));
        assert_eq!(c.now(), Timestamp(5));
    }

    #[test]
    fn manual_clock_clones_share_state() {
        let a = ManualClock::new();
        let b = a.clone();
        a.advance(42);
        assert_eq!(b.now(), Timestamp(42));
    }

    #[test]
    fn timestamp_arithmetic() {
        let t = Timestamp(1_500_000_000);
        assert_eq!(t.as_secs_f64(), 1.5);
        assert_eq!(t.since(Timestamp(500_000_000)), 1_000_000_000);
        assert_eq!(Timestamp(5).since(Timestamp(10)), 0, "saturates");
        assert_eq!(t.plus(1).nanos(), 1_500_000_001);
    }

    #[test]
    fn interval_relations() {
        let a = Interval::new(Timestamp(10), Timestamp(20));
        let b = Interval::new(Timestamp(20), Timestamp(30));
        let c = Interval::new(Timestamp(21), Timestamp(25));
        assert_eq!(a.duration(), 10);
        assert!(a.contains(Timestamp(10)));
        assert!(a.contains(Timestamp(20)));
        assert!(!a.contains(Timestamp(21)));
        assert!(a.overlaps(&b), "closed intervals share an endpoint");
        assert!(!a.overlaps(&c));
        assert!(c.overlaps(&b));
    }

    #[test]
    fn manual_clock_is_thread_safe() {
        let c = ManualClock::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let c = c.clone();
                s.spawn(move || {
                    for _ in 0..1000 {
                        c.advance(1);
                    }
                });
            }
        });
        assert_eq!(c.now(), Timestamp(4000));
    }
}
