//! Real-to-complex and complex-to-real transforms.
//!
//! §2.3 of the paper notes that the overlap machinery applies unchanged to
//! the specialised real-input transforms of Sorensen et al.; this module
//! provides that substrate using the classic half-length trick: a real
//! sequence of even length `n` is packed into `n/2` complex samples, one
//! complex FFT is run, and the spectrum is disentangled with post-twiddles.
//! The result is the non-redundant half-spectrum of `n/2 + 1` bins.

use crate::complex::Complex64;
use crate::planner::{Plan1d, Planner};
use crate::Direction;
use std::sync::Arc;

/// A prepared real-to-complex / complex-to-real transform of even length.
pub struct RealFftPlan {
    n: usize,
    half_fwd: Arc<Plan1d>,
    half_bwd: Arc<Plan1d>,
    /// Post-twiddles `e^{−2πik/n}` for `k ≤ n/4`… full table for simplicity.
    twiddle: Vec<Complex64>,
}

impl RealFftPlan {
    /// Builds a plan for real length `n` (must be even and ≥ 2).
    pub fn new(n: usize) -> Self {
        assert!(
            n >= 2 && n % 2 == 0,
            "real FFT length must be even and ≥ 2, got {n}"
        );
        #[expect(clippy::disallowed_methods, reason = "its own half-length plans")]
        let mut planner = Planner::new();
        let half_fwd = planner.plan(n / 2, Direction::Forward);
        let half_bwd = planner.plan(n / 2, Direction::Backward);
        let twiddle = (0..n / 2 + 1)
            .map(|k| Complex64::cis(-2.0 * std::f64::consts::PI * k as f64 / n as f64))
            .collect();
        RealFftPlan {
            n,
            half_fwd,
            half_bwd,
            twiddle,
        }
    }

    /// Real transform length.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Number of complex output bins, `n/2 + 1`.
    #[inline]
    pub fn spectrum_len(&self) -> usize {
        self.n / 2 + 1
    }

    /// Forward transform: real `input` (length `n`) → half spectrum
    /// (length `n/2 + 1`).
    pub fn forward(&self, input: &[f64], spectrum: &mut [Complex64]) {
        let n = self.n;
        let h = n / 2;
        assert_eq!(input.len(), n, "input length mismatch");
        assert_eq!(spectrum.len(), h + 1, "spectrum length mismatch");

        // Pack even samples into re, odd into im.
        let mut z: Vec<Complex64> = (0..h)
            .map(|j| Complex64::new(input[2 * j], input[2 * j + 1]))
            .collect();
        self.half_fwd.execute_alloc(&mut z);

        // Disentangle: Z[k] = E[k] + i·O[k] where E/O are the FFTs of the
        // even/odd subsequences; then Y[k] = E[k] + ω^k·O[k].
        for k in 0..=h {
            let zk = if k == h { z[0] } else { z[k] };
            let zkc = z[(h - k) % h].conj();
            let e = (zk + zkc).scale(0.5);
            let o = (zk - zkc).mul_neg_i().scale(0.5);
            spectrum[k] = e + self.twiddle[k] * o;
        }
    }

    /// Inverse transform: half spectrum (length `n/2 + 1`) → real `output`
    /// (length `n`). Unnormalised, matching the complex kernels: a forward
    /// → inverse round trip scales by `n`.
    pub fn inverse(&self, spectrum: &[Complex64], output: &mut [f64]) {
        let n = self.n;
        let h = n / 2;
        assert_eq!(spectrum.len(), h + 1, "spectrum length mismatch");
        assert_eq!(output.len(), n, "output length mismatch");

        // Reverse the disentangling, then one half-length inverse FFT.
        let mut z = vec![Complex64::ZERO; h];
        for (k, slot) in z.iter_mut().enumerate() {
            let yk = spectrum[k];
            let ync = spectrum[h - k].conj();
            // The ½ factors are folded out so a forward→inverse round trip
            // scales by n (not n/2), matching the complex-kernel convention.
            let e = yk + ync;
            let o = (yk - ync) * self.twiddle[k].conj();
            *slot = e + o.mul_i();
        }
        self.half_bwd.execute_alloc(&mut z);
        for (j, zj) in z.iter().enumerate() {
            output[2 * j] = zj.re;
            output[2 * j + 1] = zj.im;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dft::dft;

    fn real_signal(n: usize) -> Vec<f64> {
        (0..n)
            .map(|j| (j as f64 * 0.19).sin() + 0.3 * (j as f64 * 0.05).cos())
            .collect()
    }

    #[test]
    fn forward_matches_complex_dft() {
        for n in [2usize, 4, 8, 12, 30, 64, 100, 256] {
            let x = real_signal(n);
            let plan = RealFftPlan::new(n);
            let mut spec = vec![Complex64::ZERO; plan.spectrum_len()];
            plan.forward(&x, &mut spec);
            let xc: Vec<Complex64> = x.iter().map(|&r| Complex64::new(r, 0.0)).collect();
            let want = dft(&xc, Direction::Forward);
            for k in 0..plan.spectrum_len() {
                assert!((spec[k] - want[k]).abs() < 1e-9 * n as f64, "n={n} k={k}");
            }
        }
    }

    #[test]
    fn hermitian_symmetry_is_implied() {
        // The stored half spectrum plus conjugate symmetry reproduces the
        // full complex spectrum.
        let n = 16;
        let x = real_signal(n);
        let plan = RealFftPlan::new(n);
        let mut spec = vec![Complex64::ZERO; plan.spectrum_len()];
        plan.forward(&x, &mut spec);
        let xc: Vec<Complex64> = x.iter().map(|&r| Complex64::new(r, 0.0)).collect();
        let full = dft(&xc, Direction::Forward);
        for k in plan.spectrum_len()..n {
            assert!((full[k] - spec[n - k].conj()).abs() < 1e-10);
        }
    }

    #[test]
    fn round_trip_scales_by_n() {
        for n in [4usize, 20, 48, 128] {
            let x = real_signal(n);
            let plan = RealFftPlan::new(n);
            let mut spec = vec![Complex64::ZERO; plan.spectrum_len()];
            plan.forward(&x, &mut spec);
            let mut back = vec![0.0; n];
            plan.inverse(&spec, &mut back);
            for j in 0..n {
                assert!((back[j] / n as f64 - x[j]).abs() < 1e-10, "n={n} j={j}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "even")]
    fn odd_lengths_rejected() {
        RealFftPlan::new(9);
    }

    #[test]
    fn dc_and_nyquist_are_real() {
        let n = 32;
        let x = real_signal(n);
        let plan = RealFftPlan::new(n);
        let mut spec = vec![Complex64::ZERO; plan.spectrum_len()];
        plan.forward(&x, &mut spec);
        assert!(spec[0].im.abs() < 1e-10);
        assert!(spec[n / 2].im.abs() < 1e-10);
    }
}
