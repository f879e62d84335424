//! Simulated time.
//!
//! The engine measures time in **microseconds** stored in a `u64`. That gives
//! ~584,000 years of range — far beyond any streaming session — while keeping
//! every arithmetic operation exact and every run bit-for-bit reproducible
//! (no floating-point clock drift between platforms).
//!
//! Two newtypes keep instants and spans from being confused:
//!
//! * [`SimTime`] — an absolute instant on the simulation clock.
//! * [`SimDuration`] — a span between two instants.
//!
//! The usual arithmetic is provided: `SimTime + SimDuration -> SimTime`,
//! `SimTime - SimTime -> SimDuration`, `SimDuration * u64`, etc. Operations
//! that could underflow are available in `checked_`/`saturating_` form; the
//! plain operators panic in debug builds like the standard library types.

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Number of microseconds per second.
pub const MICROS_PER_SEC: u64 = 1_000_000;
/// Number of microseconds per millisecond.
pub const MICROS_PER_MILLI: u64 = 1_000;

/// An absolute instant on the simulation clock, in microseconds since the
/// start of the run.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A non-negative span of simulated time, in microseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Builds an instant from raw microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us)
    }

    /// Builds an instant from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * MICROS_PER_MILLI)
    }

    /// Builds an instant from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * MICROS_PER_SEC)
    }

    /// Builds an instant from fractional seconds, rounding to the nearest
    /// microsecond. Negative and non-finite inputs clamp to zero.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime(secs_f64_to_micros(s))
    }

    /// Raw microsecond count.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This instant expressed in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Whole seconds elapsed (truncating).
    #[inline]
    pub const fn as_secs(self) -> u64 {
        self.0 / MICROS_PER_SEC
    }

    /// The span from `earlier` to `self`, clamping to zero if `earlier` is
    /// later.
    #[inline]
    pub const fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Adds a span, saturating at [`SimTime::MAX`].
    #[inline]
    pub const fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }

    /// The later of two instants.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The earlier of two instants.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Builds a span from raw microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us)
    }

    /// Builds a span from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * MICROS_PER_MILLI)
    }

    /// Builds a span from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * MICROS_PER_SEC)
    }

    /// Builds a span from fractional seconds, rounding to the nearest
    /// microsecond. Negative and non-finite inputs clamp to zero.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration(secs_f64_to_micros(s))
    }

    /// Raw microsecond count.
    #[inline]
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// This span expressed in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Whole seconds (truncating).
    #[inline]
    pub const fn as_secs(self) -> u64 {
        self.0 / MICROS_PER_SEC
    }

    /// True if the span is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Adds two spans, saturating at [`SimDuration::MAX`].
    #[inline]
    pub const fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }

    /// Subtracts, clamping at zero.
    #[inline]
    pub const fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// Multiplies by a scalar, saturating.
    #[inline]
    pub const fn saturating_mul(self, k: u64) -> SimDuration {
        SimDuration(self.0.saturating_mul(k))
    }

    /// The larger of two spans.
    #[inline]
    pub fn max(self, other: SimDuration) -> SimDuration {
        if self.0 >= other.0 {
            self
        } else {
            other
        }
    }

    /// The smaller of two spans.
    #[inline]
    pub fn min(self, other: SimDuration) -> SimDuration {
        if self.0 <= other.0 {
            self
        } else {
            other
        }
    }

    /// Scales the span by a non-negative factor, rounding to the nearest
    /// microsecond. Negative and non-finite factors clamp to zero.
    #[inline]
    pub fn mul_f64(self, k: f64) -> SimDuration {
        if !k.is_finite() || k <= 0.0 {
            return SimDuration::ZERO;
        }
        let v = self.0 as f64 * k;
        if v >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(v.round() as u64)
        }
    }
}

#[inline]
fn secs_f64_to_micros(s: f64) -> u64 {
    if s.is_nan() || s <= 0.0 {
        return 0;
    }
    if s.is_infinite() {
        return u64::MAX;
    }
    let v = s * MICROS_PER_SEC as f64;
    if v >= u64::MAX as f64 {
        u64::MAX
    } else {
        v.round() as u64
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    #[inline]
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(SimTime::from_millis(5).as_micros(), 5_000);
        assert_eq!(SimTime::from_micros(42).as_micros(), 42);
        assert_eq!(SimDuration::from_secs(2).as_secs(), 2);
        assert_eq!(SimDuration::from_millis(1500).as_secs(), 1);
    }

    #[test]
    fn float_conversions() {
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.as_micros(), 1_500_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
        // Negative / NaN clamp to zero.
        assert_eq!(SimTime::from_secs_f64(-3.0), SimTime::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::MAX);
    }

    #[test]
    fn instant_plus_span() {
        let t = SimTime::from_secs(10) + SimDuration::from_millis(250);
        assert_eq!(t.as_micros(), 10_250_000);
        let mut u = t;
        u += SimDuration::from_micros(1);
        assert_eq!(u.as_micros(), 10_250_001);
    }

    #[test]
    fn instant_difference() {
        let a = SimTime::from_secs(4);
        let b = SimTime::from_secs(7);
        assert_eq!(b - a, SimDuration::from_secs(3));
        assert_eq!(a.saturating_since(b), SimDuration::ZERO);
    }

    #[test]
    fn span_arithmetic() {
        let d = SimDuration::from_secs(2) + SimDuration::from_millis(500);
        assert_eq!(d.as_micros(), 2_500_000);
        assert_eq!(d * 2, SimDuration::from_secs(5));
        assert_eq!(d / 5, SimDuration::from_millis(500));
        assert_eq!(
            SimDuration::from_secs(1).saturating_sub(SimDuration::from_secs(2)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn span_mul_f64() {
        let d = SimDuration::from_secs(10);
        assert_eq!(d.mul_f64(0.5), SimDuration::from_secs(5));
        assert_eq!(d.mul_f64(-1.0), SimDuration::ZERO);
        assert_eq!(d.mul_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::MAX.mul_f64(2.0), SimDuration::MAX);
    }

    #[test]
    fn ordering_and_minmax() {
        let a = SimTime::from_secs(1);
        let b = SimTime::from_secs(2);
        assert!(a < b);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
        let x = SimDuration::from_secs(1);
        let y = SimDuration::from_secs(2);
        assert_eq!(x.max(y), y);
        assert_eq!(x.min(y), x);
    }

    #[test]
    fn saturating_instant_add() {
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_secs(1)),
            SimTime::MAX
        );
    }

    #[test]
    fn display_formats() {
        assert_eq!(format!("{}", SimTime::from_millis(1500)), "1.500s");
        assert_eq!(format!("{}", SimDuration::from_millis(75)), "0.075s");
    }
}
