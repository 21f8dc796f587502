//! Double-precision complex numbers.
//!
//! A deliberately small, `repr(C)` complex type so the whole workspace can
//! treat buffers of samples as flat `&[Complex64]` slices without pulling in
//! an external numerics dependency. Only the operations the FFT kernels and
//! the spectral examples need are provided.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, DivAssign, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` real and imaginary parts.
///
/// Layout-compatible with `[f64; 2]` (and therefore with FFTW's
/// `fftw_complex` and C99 `double complex`), which lets the message-passing
/// layers move buffers of these as plain bytes.
#[derive(Clone, Copy, Default, PartialEq)]
#[repr(C)]
pub struct Complex64 {
    /// Real part.
    pub re: f64,
    /// Imaginary part.
    pub im: f64,
}

/// Bit-level payload view for wire checksums and fault injection: a
/// `Complex64` is 128 bits, `re` first (matching its `repr(C)` layout).
impl faultplan::PayloadBits for Complex64 {
    const BITS: u32 = 128;

    fn fold_bits(&self, h: u64) -> u64 {
        self.im.fold_bits(self.re.fold_bits(h))
    }

    fn flip_bit(&mut self, bit: u32) {
        match bit % 128 {
            b @ 0..=63 => self.re.flip_bit(b),
            b => self.im.flip_bit(b - 64),
        }
    }
}

impl Complex64 {
    /// The additive identity, `0 + 0i`.
    pub const ZERO: Complex64 = Complex64 { re: 0.0, im: 0.0 };
    /// The multiplicative identity, `1 + 0i`.
    pub const ONE: Complex64 = Complex64 { re: 1.0, im: 0.0 };
    /// The imaginary unit, `0 + 1i`.
    pub const I: Complex64 = Complex64 { re: 0.0, im: 1.0 };

    /// Creates a complex number from rectangular coordinates.
    #[inline(always)]
    pub const fn new(re: f64, im: f64) -> Self {
        Complex64 { re, im }
    }

    /// Creates a complex number on the unit circle at angle `theta` radians:
    /// `cos θ + i sin θ`.
    #[inline]
    pub fn cis(theta: f64) -> Self {
        let (s, c) = theta.sin_cos();
        Complex64 { re: c, im: s }
    }

    /// The complex conjugate `re - im·i`.
    #[inline(always)]
    pub fn conj(self) -> Self {
        Complex64 {
            re: self.re,
            im: -self.im,
        }
    }

    /// The squared magnitude `re² + im²`.
    #[inline(always)]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// The magnitude `|z|`.
    #[inline]
    pub fn abs(self) -> f64 {
        self.re.hypot(self.im)
    }

    /// The argument (phase angle) in radians.
    #[inline]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// Multiplies by the imaginary unit (a 90° rotation), cheaper than a
    /// full complex multiply. Used by the radix-4 butterflies.
    #[inline(always)]
    pub fn mul_i(self) -> Self {
        Complex64 {
            re: -self.im,
            im: self.re,
        }
    }

    /// Multiplies by `-i` (a −90° rotation).
    #[inline(always)]
    pub fn mul_neg_i(self) -> Self {
        Complex64 {
            re: self.im,
            im: -self.re,
        }
    }

    /// Scales both components by a real factor.
    #[inline(always)]
    pub fn scale(self, s: f64) -> Self {
        Complex64 {
            re: self.re * s,
            im: self.im * s,
        }
    }

    /// Fused multiply-add shape `self * b + c`, written so the optimizer can
    /// keep everything in registers in the butterfly hot loops.
    #[inline(always)]
    pub fn mul_add(self, b: Complex64, c: Complex64) -> Self {
        Complex64 {
            re: self.re * b.re - self.im * b.im + c.re,
            im: self.re * b.im + self.im * b.re + c.im,
        }
    }

    /// `true` when both components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl Add for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn add(self, rhs: Complex64) -> Complex64 {
        Complex64 {
            re: self.re + rhs.re,
            im: self.im + rhs.im,
        }
    }
}

impl Sub for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn sub(self, rhs: Complex64) -> Complex64 {
        Complex64 {
            re: self.re - rhs.re,
            im: self.im - rhs.im,
        }
    }
}

impl Mul for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn mul(self, rhs: Complex64) -> Complex64 {
        Complex64 {
            re: self.re * rhs.re - self.im * rhs.im,
            im: self.re * rhs.im + self.im * rhs.re,
        }
    }
}

impl Mul<f64> for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn mul(self, rhs: f64) -> Complex64 {
        self.scale(rhs)
    }
}

impl Div for Complex64 {
    type Output = Complex64;
    #[inline]
    fn div(self, rhs: Complex64) -> Complex64 {
        let d = rhs.norm_sqr();
        Complex64 {
            re: (self.re * rhs.re + self.im * rhs.im) / d,
            im: (self.im * rhs.re - self.re * rhs.im) / d,
        }
    }
}

impl Div<f64> for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn div(self, rhs: f64) -> Complex64 {
        Complex64 {
            re: self.re / rhs,
            im: self.im / rhs,
        }
    }
}

impl Neg for Complex64 {
    type Output = Complex64;
    #[inline(always)]
    fn neg(self) -> Complex64 {
        Complex64 {
            re: -self.re,
            im: -self.im,
        }
    }
}

impl AddAssign for Complex64 {
    #[inline(always)]
    fn add_assign(&mut self, rhs: Complex64) {
        *self = *self + rhs;
    }
}

impl SubAssign for Complex64 {
    #[inline(always)]
    fn sub_assign(&mut self, rhs: Complex64) {
        *self = *self - rhs;
    }
}

impl MulAssign for Complex64 {
    #[inline(always)]
    fn mul_assign(&mut self, rhs: Complex64) {
        *self = *self * rhs;
    }
}

impl DivAssign for Complex64 {
    #[inline(always)]
    fn div_assign(&mut self, rhs: Complex64) {
        *self = *self / rhs;
    }
}

impl Sum for Complex64 {
    fn sum<I: Iterator<Item = Complex64>>(iter: I) -> Complex64 {
        iter.fold(Complex64::ZERO, |a, b| a + b)
    }
}

impl From<f64> for Complex64 {
    #[inline]
    fn from(re: f64) -> Self {
        Complex64 { re, im: 0.0 }
    }
}

impl fmt::Debug for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({:+e}{:+e}i)", self.re, self.im)
    }
}

impl fmt::Display for Complex64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{}+{}i", self.re, self.im)
        } else {
            write!(f, "{}{}i", self.re, self.im)
        }
    }
}

/// Maximum absolute component-wise deviation between two complex slices.
///
/// Used throughout the test suites to compare transform outputs against
/// references.
pub fn max_abs_diff(a: &[Complex64], b: &[Complex64]) -> f64 {
    assert_eq!(a.len(), b.len(), "slices must have equal length");
    a.iter()
        .zip(b)
        .map(|(x, y)| (x.re - y.re).abs().max((x.im - y.im).abs()))
        .fold(0.0, f64::max)
}

/// Relative L2 error `‖a − b‖ / ‖b‖`, with `‖b‖ = 0` treated as absolute.
pub fn rel_l2_error(a: &[Complex64], b: &[Complex64]) -> f64 {
    assert_eq!(a.len(), b.len(), "slices must have equal length");
    let num: f64 = a.iter().zip(b).map(|(x, y)| (*x - *y).norm_sqr()).sum();
    let den: f64 = b.iter().map(|y| y.norm_sqr()).sum();
    if den == 0.0 {
        num.sqrt()
    } else {
        (num / den).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: Complex64, b: Complex64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn arithmetic_identities() {
        let z = Complex64::new(3.0, -4.0);
        assert!(close(z + Complex64::ZERO, z));
        assert!(close(z * Complex64::ONE, z));
        assert!(close(z - z, Complex64::ZERO));
        assert!(close(z / z, Complex64::ONE));
        assert!(close(-(-z), z));
    }

    #[test]
    fn conjugate_and_norm() {
        let z = Complex64::new(3.0, -4.0);
        assert_eq!(z.norm_sqr(), 25.0);
        assert_eq!(z.abs(), 5.0);
        assert!(close(z * z.conj(), Complex64::new(25.0, 0.0)));
    }

    #[test]
    fn rotations_match_full_multiplies() {
        let z = Complex64::new(1.5, 2.5);
        assert!(close(z.mul_i(), z * Complex64::I));
        assert!(close(z.mul_neg_i(), z * -Complex64::I));
    }

    #[test]
    fn cis_lies_on_unit_circle() {
        for k in 0..16 {
            let t = k as f64 * std::f64::consts::PI / 8.0;
            let z = Complex64::cis(t);
            assert!((z.abs() - 1.0).abs() < 1e-14);
            // arg() is in (-pi, pi]; compare modulo 2pi so the t = pi
            // boundary (where -pi and pi are the same angle) passes.
            let diff = (z.arg() - t).rem_euclid(2.0 * std::f64::consts::PI);
            assert!(diff < 1e-12 || (2.0 * std::f64::consts::PI - diff) < 1e-12);
        }
    }

    #[test]
    fn mul_add_matches_separate_ops() {
        let a = Complex64::new(1.0, 2.0);
        let b = Complex64::new(-0.5, 0.25);
        let c = Complex64::new(3.0, -1.0);
        assert!(close(a.mul_add(b, c), a * b + c));
    }

    #[test]
    fn division_by_real() {
        let z = Complex64::new(4.0, -6.0);
        assert!(close(z / 2.0, Complex64::new(2.0, -3.0)));
    }

    #[test]
    fn error_metrics() {
        let a = [Complex64::new(1.0, 0.0), Complex64::new(0.0, 1.0)];
        let b = [Complex64::new(1.0, 0.0), Complex64::new(0.0, 1.0)];
        assert_eq!(max_abs_diff(&a, &b), 0.0);
        assert_eq!(rel_l2_error(&a, &b), 0.0);
        let c = [Complex64::new(1.0, 0.5), Complex64::new(0.0, 1.0)];
        assert!((max_abs_diff(&c, &b) - 0.5).abs() < 1e-15);
        assert!(rel_l2_error(&c, &b) > 0.0);
    }

    #[test]
    fn sum_folds_from_zero() {
        let v = [Complex64::new(1.0, 1.0); 4];
        let s: Complex64 = v.iter().copied().sum();
        assert!(close(s, Complex64::new(4.0, 4.0)));
    }
}
