//! Per-rank virtual clock.

use crate::time::SimTime;
use std::cell::Cell;

/// A rank's virtual clock.
///
/// Each rank owns exactly one `Clock`; it is advanced by the cost
/// model as the rank computes, communicates and performs I/O. The clock is
/// deliberately `!Sync` (interior `Cell`): cross-rank time agreement goes
/// through [`crate::Rendezvous`] or message timestamps, never by peeking at
/// another rank's clock.
#[derive(Debug)]
pub struct Clock {
    now: Cell<SimTime>,
}

impl Clock {
    /// A clock starting at virtual time zero.
    pub fn new() -> Self {
        Clock {
            now: Cell::new(SimTime::ZERO),
        }
    }

    /// Current virtual time.
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now.get()
    }

    /// Advance by a non-negative duration.
    #[inline]
    pub fn advance(&self, dt: SimTime) {
        debug_assert!(dt.is_valid(), "negative or non-finite clock advance: {dt:?}");
        self.now.set(self.now.get() + dt);
    }

    /// Move the clock forward to `t` if `t` is later; no-op otherwise.
    ///
    /// Virtual clocks are monotone: synchronization can only delay a rank.
    #[inline]
    pub fn advance_to(&self, t: SimTime) {
        if t > self.now.get() {
            self.now.set(t);
        }
    }

    /// Reset to zero (used when a rank handle is reused across phases of a
    /// test harness).
    pub fn reset(&self) {
        self.now.set(SimTime::ZERO);
    }
}

impl Default for Clock {
    fn default() -> Self {
        Clock::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        assert_eq!(Clock::new().now(), SimTime::ZERO);
    }

    #[test]
    fn advance_accumulates() {
        let c = Clock::new();
        c.advance(SimTime::secs(1.0));
        c.advance(SimTime::millis(500.0));
        assert!((c.now().as_secs() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn advance_to_is_monotone() {
        let c = Clock::new();
        c.advance(SimTime::secs(2.0));
        c.advance_to(SimTime::secs(1.0)); // earlier: ignored
        assert_eq!(c.now(), SimTime::secs(2.0));
        c.advance_to(SimTime::secs(3.0)); // later: jumps
        assert_eq!(c.now(), SimTime::secs(3.0));
    }

    #[test]
    fn reset_returns_to_zero() {
        let c = Clock::new();
        c.advance(SimTime::secs(9.0));
        c.reset();
        assert_eq!(c.now(), SimTime::ZERO);
    }
}
