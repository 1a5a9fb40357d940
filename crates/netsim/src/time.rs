//! The virtual clock: instants and durations in nanoseconds.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// An instant on the simulator's virtual clock, in nanoseconds since the
/// start of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of virtual time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the run.
    pub const ZERO: SimTime = SimTime(0);

    /// An instant `nanos` nanoseconds into the run.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Nanoseconds since the start of the run.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole seconds since the start of the run.
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000_000
    }

    /// Seconds since the start of the run, fractional.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Whole minutes since the start of the run — the paper bins most
    /// timeseries into 10-minute probe rounds.
    pub const fn as_mins(self) -> u64 {
        self.0 / 60_000_000_000
    }

    /// The instant `d` after `self`, or `None` past the end of simulated
    /// time (`u64::MAX` ns).
    pub(crate) fn checked_add(self, d: SimDuration) -> Option<SimTime> {
        self.0.checked_add(d.0).map(SimTime)
    }

    /// Time elapsed since `earlier`, saturating at zero.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// The zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// From nanoseconds.
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// From microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        SimDuration(micros * 1_000)
    }

    /// From milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        SimDuration(millis * 1_000_000)
    }

    /// From seconds.
    pub const fn from_secs(secs: u64) -> Self {
        SimDuration(secs * 1_000_000_000)
    }

    /// From minutes.
    pub const fn from_mins(mins: u64) -> Self {
        SimDuration(mins * 60_000_000_000)
    }

    /// From fractional seconds; negative values clamp to zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration((secs.max(0.0) * 1e9) as u64)
    }

    /// Nanoseconds in the span.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole milliseconds in the span.
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Whole seconds in the span.
    pub const fn as_secs(self) -> u64 {
        self.0 / 1_000_000_000
    }

    /// Fractional seconds in the span.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Fractional milliseconds in the span — latency reporting uses this.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// The instant this duration after time zero; convenience for
    /// `SimTime::ZERO + d`.
    pub const fn after_zero(self) -> SimTime {
        SimTime(self.0)
    }

    /// Scales the span by a factor, saturating.
    ///
    /// Non-positive factors clamp to [`SimDuration::ZERO`]; `+∞` and
    /// finite overflow saturate at the maximum representable span. A NaN
    /// factor is a caller bug (debug-asserted); release builds treat it
    /// as a no-op scale rather than silently collapsing the span to zero
    /// — a zeroed retry timeout is exactly the unpaced-retry storm the
    /// paper's §6.2 warns against.
    pub fn mul_f64(self, factor: f64) -> Self {
        debug_assert!(!factor.is_nan(), "SimDuration::mul_f64: NaN factor");
        if factor.is_nan() {
            return self;
        }
        if factor <= 0.0 {
            return SimDuration::ZERO;
        }
        if factor.is_infinite() {
            return SimDuration(u64::MAX);
        }
        let scaled = self.0 as f64 * factor;
        if scaled >= u64::MAX as f64 {
            SimDuration(u64::MAX)
        } else {
            SimDuration(scaled as u64)
        }
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add<SimDuration> for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_are_consistent() {
        assert_eq!(SimDuration::from_secs(2).as_millis(), 2000);
        assert_eq!(SimDuration::from_millis(1500).as_secs(), 1);
        assert_eq!(SimDuration::from_mins(3).as_secs(), 180);
        assert_eq!(SimDuration::from_micros(1000).as_millis(), 1);
    }

    #[test]
    fn time_arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_secs(10);
        assert_eq!(t.as_secs(), 10);
        let later = t + SimDuration::from_millis(500);
        assert_eq!((later - t).as_millis(), 500);
        // Subtraction saturates rather than wrapping.
        assert_eq!((t - later).as_nanos(), 0);
    }

    #[test]
    fn minutes_binning() {
        let t = SimTime::ZERO + SimDuration::from_secs(599);
        assert_eq!(t.as_mins(), 9);
        let t = SimTime::ZERO + SimDuration::from_secs(600);
        assert_eq!(t.as_mins(), 10);
    }

    #[test]
    fn fractional_seconds_round_trip() {
        let d = SimDuration::from_secs_f64(1.25);
        assert_eq!(d.as_millis(), 1250);
        assert!((d.as_secs_f64() - 1.25).abs() < 1e-9);
        assert_eq!(SimDuration::from_secs_f64(-5.0), SimDuration::ZERO);
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_nanos(5) < SimTime::from_nanos(6));
        assert!(SimDuration::from_millis(1) < SimDuration::from_secs(1));
    }

    #[test]
    fn mul_f64_scales() {
        assert_eq!(
            SimDuration::from_secs(10).mul_f64(0.5),
            SimDuration::from_secs(5)
        );
        assert_eq!(SimDuration::from_secs(1).mul_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn mul_f64_clamps_non_positive_to_zero() {
        assert_eq!(SimDuration::from_secs(7).mul_f64(0.0), SimDuration::ZERO);
        assert_eq!(
            SimDuration::from_secs(7).mul_f64(f64::NEG_INFINITY),
            SimDuration::ZERO
        );
    }

    #[test]
    fn mul_f64_saturates_on_infinity_and_overflow() {
        assert_eq!(
            SimDuration::from_secs(1).mul_f64(f64::INFINITY),
            SimDuration::from_nanos(u64::MAX)
        );
        // A finite factor whose product exceeds u64::MAX saturates too.
        assert_eq!(
            SimDuration::from_secs(1_000_000).mul_f64(1e30),
            SimDuration::from_nanos(u64::MAX)
        );
        // 0 × ∞ is NaN in float arithmetic; the clamp order makes the
        // infinite factor win instead of producing a NaN cast.
        assert_eq!(
            SimDuration::ZERO.mul_f64(f64::INFINITY),
            SimDuration::from_nanos(u64::MAX)
        );
    }

    // The regression the sweep engine depends on: a NaN factor must never
    // collapse a timeout to zero. Debug builds assert; release builds
    // treat the scale as a no-op.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "NaN factor")]
    fn mul_f64_nan_panics_in_debug() {
        let _ = SimDuration::from_secs(1).mul_f64(f64::NAN);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn mul_f64_nan_is_a_no_op_in_release() {
        assert_eq!(
            SimDuration::from_secs(1).mul_f64(f64::NAN),
            SimDuration::from_secs(1)
        );
    }
}
