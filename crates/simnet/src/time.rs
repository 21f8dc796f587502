//! Virtual time: fixed-point nanoseconds.
//!
//! All simulator arithmetic uses integer nanoseconds so runs are exactly
//! reproducible — no accumulation-order-dependent floating-point drift.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in (or span of) virtual time, in nanoseconds.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SimTime(pub u64);

impl SimTime {
    /// Time zero.
    pub const ZERO: SimTime = SimTime(0);

    /// Constructs from whole nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Constructs from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Constructs from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        SimTime(ms * 1_000_000)
    }

    /// Constructs from (possibly fractional) seconds, rounded to the nearest
    /// nanosecond with halves away from zero; negative inputs and NaN clamp
    /// to zero, values past `u64::MAX` ns saturate.
    #[inline]
    pub fn from_secs_f64(s: f64) -> Self {
        if s <= 0.0 {
            return SimTime(0);
        }
        SimTime(nearest(s * 1e9))
    }

    /// Nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Value in seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating subtraction.
    #[inline]
    pub fn saturating_sub(self, other: SimTime) -> SimTime {
        SimTime(self.0.saturating_sub(other.0))
    }

    /// The larger of two times.
    #[inline]
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The smaller of two times.
    #[inline]
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }
}

/// `x` to the nearest `u64`, halves away from zero — libm's `round` and a
/// cast, in integer arithmetic: below 2⁵² the truncation `i` is exact in
/// `f64`, so `x − i` is the exact fraction; from 2⁵² on `x` is already
/// whole and the fraction is zero. NaN maps to 0 and values past
/// `u64::MAX` saturate, as the cast after `round` does.
#[inline]
fn nearest(x: f64) -> u64 {
    let i = x as u64;
    i.saturating_add(u64::from(x - i as f64 >= 0.5))
}

impl Add for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimTime) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimTime) {
        self.0 += rhs.0;
    }
}

impl Sub for SimTime {
    type Output = SimTime;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimTime {
        SimTime(
            self.0
                .checked_sub(rhs.0)
                .expect("SimTime subtraction underflow"),
        )
    }
}

impl SubAssign for SimTime {
    #[inline]
    fn sub_assign(&mut self, rhs: SimTime) {
        *self = *self - rhs;
    }
}

impl Mul<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn mul(self, rhs: u64) -> SimTime {
        SimTime(self.0 * rhs)
    }
}

impl Div<u64> for SimTime {
    type Output = SimTime;
    #[inline]
    fn div(self, rhs: u64) -> SimTime {
        SimTime(self.0 / rhs)
    }
}

impl Sum for SimTime {
    fn sum<I: Iterator<Item = SimTime>>(iter: I) -> SimTime {
        iter.fold(SimTime::ZERO, |a, b| a + b)
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}µs", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(SimTime::from_micros(3).as_nanos(), 3_000);
        assert_eq!(SimTime::from_millis(2).as_nanos(), 2_000_000);
        let t = SimTime::from_secs_f64(1.5);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
        assert_eq!(SimTime::from_secs_f64(-1.0), SimTime::ZERO);
    }

    #[test]
    fn arithmetic() {
        let a = SimTime::from_nanos(100);
        let b = SimTime::from_nanos(30);
        assert_eq!(a + b, SimTime::from_nanos(130));
        assert_eq!(a - b, SimTime::from_nanos(70));
        assert_eq!(a * 3, SimTime::from_nanos(300));
        assert_eq!(a / 4, SimTime::from_nanos(25));
        assert_eq!(b.saturating_sub(a), SimTime::ZERO);
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn underflow_panics() {
        let _ = SimTime::from_nanos(1) - SimTime::from_nanos(2);
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(format!("{}", SimTime::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", SimTime::from_micros(12)), "12.000µs");
        assert_eq!(format!("{}", SimTime::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", SimTime::from_secs_f64(1.25)), "1.250s");
    }

    #[test]
    fn sum_of_spans() {
        let total: SimTime = [1u64, 2, 3].iter().map(|&n| SimTime::from_nanos(n)).sum();
        assert_eq!(total, SimTime::from_nanos(6));
    }

    /// The libm rounding [`nearest`] replaces, kept as its oracle.
    fn libm_nearest(x: f64) -> u64 {
        x.round() as u64
    }

    /// `from_secs_f64` as it was written over [`libm_nearest`].
    fn rounded(s: f64) -> SimTime {
        if s <= 0.0 {
            SimTime(0)
        } else {
            SimTime(libm_nearest(s * 1e9))
        }
    }

    #[test]
    fn integer_rounding_matches_libm_on_the_edges() {
        let specials = [
            0.0,
            -0.0,
            -1.0,
            -1e-300,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 4.0, // subnormal
            5e-324,
            0.5e-9,
            1.5e-9,
            2.5e-9,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
        ];
        for s in specials {
            assert_eq!(SimTime::from_secs_f64(s), rounded(s), "s = {s:e}");
        }
        // Around 2⁵¹…2⁵³ ns the spacing of `f64` passes ½ and 1; around
        // 2⁶⁴ ns the cast saturates. Each neighbour, and its ±½, as a
        // nanosecond count and as seconds.
        for e in [51, 52, 53, 63, 64, 65] {
            let ns = 2f64.powi(e);
            for ulps in -4i64..=4 {
                let x = f64::from_bits(ns.to_bits().wrapping_add_signed(ulps));
                for x in [x, x + 0.5, x - 0.5] {
                    assert_eq!(nearest(x), libm_nearest(x), "x = {x:e}");
                    let s = x / 1e9;
                    assert_eq!(SimTime::from_secs_f64(s), rounded(s), "s = {s:e}");
                }
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4096))]

        /// Integer rounding is libm's `round` on finite inputs of every
        /// magnitude, from subnormal to past `u64::MAX` ns, of either sign.
        #[test]
        fn integer_rounding_matches_libm(
            mantissa in 0.0f64..1.0,
            exp in -330i32..20,
            negative in any::<bool>(),
        ) {
            let s = mantissa * 10f64.powi(exp);
            let s = if negative { -s } else { s };
            prop_assert_eq!(SimTime::from_secs_f64(s), rounded(s));
        }

        /// Exact halves `k + ½` ns up to 2⁵² (past it none is representable)
        /// round away from zero, as `round` does.
        #[test]
        fn halves_round_away_from_zero(k in 0u64..(1 << 52)) {
            let x = k as f64 + 0.5;
            prop_assert_eq!(nearest(x), k + 1);
            prop_assert_eq!(nearest(x), libm_nearest(x));
        }

        /// Whatever `f64` a bit pattern is, NaNs and infinities included,
        /// the two agree.
        #[test]
        fn any_bit_pattern(bits in any::<u64>()) {
            let s = f64::from_bits(bits);
            prop_assert_eq!(SimTime::from_secs_f64(s), rounded(s));
        }
    }
}
