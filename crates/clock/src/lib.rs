//! Virtual time for the XLINK simulation stack.
//!
//! The whole transport stack is a pure state machine driven by a simulated
//! clock, so every type in the workspace that needs time uses this crate's
//! [`Instant`] and [`Duration`] (microsecond resolution, `u64` backed)
//! instead of `std::time`. This keeps experiments deterministic and lets
//! tests fast-forward billions of virtual seconds instantly.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in virtual time, measured in microseconds since the start of the
/// simulation.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Instant(u64);

/// A span of virtual time in microseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl Instant {
    /// The origin of simulated time.
    pub const ZERO: Instant = Instant(0);
    /// The maximum representable instant (used as "never" in timer logic).
    pub const MAX: Instant = Instant(u64::MAX);

    /// Construct from an absolute microsecond count.
    pub const fn from_micros(us: u64) -> Self {
        Instant(us)
    }

    /// Construct from an absolute millisecond count.
    pub const fn from_millis(ms: u64) -> Self {
        Instant(ms * 1_000)
    }

    /// Construct from an absolute second count.
    pub const fn from_secs(s: u64) -> Self {
        Instant(s * 1_000_000)
    }

    /// Microseconds since the simulation origin.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Milliseconds since the simulation origin (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// Seconds since the simulation origin as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Time elapsed since `earlier`, saturating to zero if `earlier` is in
    /// the future.
    pub fn saturating_duration_since(self, earlier: Instant) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// Time elapsed since `earlier`. Panics in debug builds if `earlier` is
    /// later than `self`.
    pub fn duration_since(self, earlier: Instant) -> Duration {
        debug_assert!(self.0 >= earlier.0, "duration_since: earlier > self");
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// Add a duration, saturating at `Instant::MAX`.
    pub fn saturating_add(self, d: Duration) -> Instant {
        Instant(self.0.saturating_add(d.0))
    }
}

impl Duration {
    /// Zero-length span.
    pub const ZERO: Duration = Duration(0);
    /// Maximum representable span.
    pub const MAX: Duration = Duration(u64::MAX);

    /// Construct from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Duration(us)
    }

    /// Construct from milliseconds, saturating at [`Duration::MAX`] like
    /// the type's arithmetic does (wire decoders feed this peer-controlled
    /// 62-bit counts).
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms.saturating_mul(1_000))
    }

    /// Construct from seconds, saturating at [`Duration::MAX`].
    pub const fn from_secs(s: u64) -> Self {
        Duration(s.saturating_mul(1_000_000))
    }

    /// Construct from fractional seconds (rounding to the nearest µs).
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0, "negative duration");
        Duration((s * 1e6).round() as u64)
    }

    /// The span in whole microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The span in whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// The span in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: Duration) -> Duration {
        Duration(self.0.saturating_sub(other.0))
    }

    /// Saturating addition.
    pub fn saturating_add(self, other: Duration) -> Duration {
        Duration(self.0.saturating_add(other.0))
    }

    /// Multiply by a float factor (rounding), saturating at `Duration::MAX`.
    pub fn mul_f64(self, k: f64) -> Duration {
        debug_assert!(k >= 0.0, "negative duration factor");
        let v = self.0 as f64 * k;
        if v >= u64::MAX as f64 {
            Duration::MAX
        } else {
            Duration(v.round() as u64)
        }
    }

    /// Integer division by a count.
    pub fn div_u32(self, k: u32) -> Duration {
        Duration(self.0 / u64::from(k.max(1)))
    }

    /// Smaller of two durations.
    pub fn min(self, other: Duration) -> Duration {
        if self <= other {
            self
        } else {
            other
        }
    }

    /// Larger of two durations.
    pub fn max(self, other: Duration) -> Duration {
        if self >= other {
            self
        } else {
            other
        }
    }
}

impl Add<Duration> for Instant {
    type Output = Instant;
    fn add(self, d: Duration) -> Instant {
        Instant(self.0.saturating_add(d.0))
    }
}

impl AddAssign<Duration> for Instant {
    fn add_assign(&mut self, d: Duration) {
        *self = *self + d;
    }
}

impl Sub<Duration> for Instant {
    type Output = Instant;
    fn sub(self, d: Duration) -> Instant {
        Instant(self.0.saturating_sub(d.0))
    }
}

impl SubAssign<Duration> for Instant {
    fn sub_assign(&mut self, d: Duration) {
        *self = *self - d;
    }
}

impl Sub<Instant> for Instant {
    type Output = Duration;
    fn sub(self, earlier: Instant) -> Duration {
        self.saturating_duration_since(earlier)
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, other: Duration) -> Duration {
        Duration(self.0.saturating_add(other.0))
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, other: Duration) {
        *self = *self + other;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, other: Duration) -> Duration {
        Duration(self.0.saturating_sub(other.0))
    }
}

impl SubAssign for Duration {
    fn sub_assign(&mut self, other: Duration) {
        *self = *self - other;
    }
}

impl Mul<u32> for Duration {
    type Output = Duration;
    fn mul(self, k: u32) -> Duration {
        Duration(self.0.saturating_mul(u64::from(k)))
    }
}

impl Div<u32> for Duration {
    type Output = Duration;
    fn div(self, k: u32) -> Duration {
        self.div_u32(k)
    }
}

impl fmt::Debug for Instant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}us", self.0)
    }
}

impl fmt::Display for Instant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}us", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn instant_arithmetic() {
        let t = Instant::from_millis(10);
        assert_eq!(t.as_micros(), 10_000);
        let t2 = t + Duration::from_millis(5);
        assert_eq!(t2.as_millis(), 15);
        assert_eq!((t2 - t).as_millis(), 5);
        assert_eq!(t - t2, Duration::ZERO); // saturating
    }

    #[test]
    fn duration_arithmetic() {
        let d = Duration::from_millis(100);
        assert_eq!((d * 3).as_millis(), 300);
        assert_eq!((d / 4).as_millis(), 25);
        assert_eq!(d.mul_f64(1.5).as_millis(), 150);
        assert_eq!((d - Duration::from_secs(1)), Duration::ZERO);
        assert_eq!(d.min(Duration::from_millis(50)).as_millis(), 50);
        assert_eq!(d.max(Duration::from_millis(50)).as_millis(), 100);
    }

    #[test]
    fn saturation_at_extremes() {
        assert_eq!(Instant::MAX + Duration::from_secs(1), Instant::MAX);
        assert_eq!(Duration::MAX + Duration::from_secs(1), Duration::MAX);
        assert_eq!(Duration::MAX.mul_f64(2.0), Duration::MAX);
        assert_eq!(Instant::ZERO - Duration::from_secs(1), Instant::ZERO);
        assert_eq!(Duration::from_millis((1 << 62) - 1), Duration::MAX);
        assert_eq!(Duration::from_secs(u64::MAX), Duration::MAX);
    }

    #[test]
    fn conversions() {
        assert_eq!(Duration::from_secs(2).as_millis(), 2000);
        assert_eq!(Duration::from_secs_f64(0.0015).as_micros(), 1500);
        assert!((Duration::from_millis(1500).as_secs_f64() - 1.5).abs() < 1e-9);
        assert_eq!(Instant::from_secs(1).as_millis(), 1000);
    }

    #[test]
    fn ordering_and_display() {
        assert!(Instant::from_millis(1) < Instant::from_millis(2));
        assert_eq!(format!("{}", Duration::from_micros(500)), "500us");
        assert_eq!(format!("{}", Duration::from_millis(2)), "2.000ms");
        assert_eq!(format!("{}", Duration::from_secs(3)), "3.000s");
    }

    #[test]
    fn saturating_duration_since_is_order_safe() {
        let a = Instant::from_millis(5);
        let b = Instant::from_millis(9);
        assert_eq!(b.saturating_duration_since(a).as_millis(), 4);
        assert_eq!(a.saturating_duration_since(b), Duration::ZERO);
    }

    #[test]
    fn div_u32_guards_zero() {
        assert_eq!(Duration::from_millis(10).div_u32(0).as_millis(), 10);
    }
}
