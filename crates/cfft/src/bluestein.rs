//! Bluestein's chirp-z algorithm for arbitrary transform lengths.
//!
//! Rewrites an N-point DFT (N arbitrary, including large primes) as a
//! circular convolution of length `M ≥ 2N−1`, `M` a power of two, evaluated
//! with the radix-2/Stockham kernels:
//!
//! ```text
//! jk = −((j−k)² − j² − k²)/2
//! Y[k] = b*[k] · Σ_j (x[j]·b*[j]) · b[k−j],   b[j] = e^{iπ j²/N·sign}
//! ```
//!
//! The chirp `b` and the FFT of its zero-padded extension are precomputed at
//! plan time, so execution is two forward FFTs, a point-wise multiply, and
//! one inverse FFT of length `M`.

use crate::batch::BatchScratch;
use crate::complex::Complex64;
use crate::mixed::{convolve, MixedRadixPlan};
use crate::Direction;

/// A prepared Bluestein plan for one `(length, direction)` pair.
#[derive(Debug, Clone)]
pub struct BluesteinPlan {
    n: usize,
    m: usize,
    dir: Direction,
    /// Chirp values `b[j] = e^{sign·iπ j²/n}` for `j < n`.
    chirp: Vec<Complex64>,
    /// Forward FFT (length `m`) of the circularly extended chirp.
    chirp_hat: Vec<Complex64>,
    fwd: MixedRadixPlan,
    bwd: MixedRadixPlan,
}

impl BluesteinPlan {
    /// Builds the plan. Always succeeds for `n ≥ 1`.
    pub fn new(n: usize, dir: Direction) -> Self {
        assert!(n >= 1, "Bluestein length must be ≥ 1");
        let m = (2 * n - 1).next_power_of_two().max(1);
        // Forward needs a[j] = x[j]·e^{−iπj²/n}; the code multiplies by
        // `chirp.conj()`, so the stored chirp carries the opposite sign.
        let sign = match dir {
            Direction::Forward => 1.0,
            Direction::Backward => -1.0,
        };
        // j² mod 2n keeps the chirp argument exact for large j.
        let two_n = 2 * n as u64;
        let chirp: Vec<Complex64> = (0..n as u64)
            .map(|j| {
                let jsq = (j * j) % two_n;
                Complex64::cis(sign * std::f64::consts::PI * jsq as f64 / n as f64)
            })
            .collect();

        let fwd = MixedRadixPlan::new(m, Direction::Forward)
            .expect("power-of-two lengths are always smooth");
        let bwd = MixedRadixPlan::new(m, Direction::Backward)
            .expect("power-of-two lengths are always smooth");

        // Extended chirp: conj at 0..n and mirrored tail, zero in between.
        let mut ext = vec![Complex64::ZERO; m];
        for (j, &c) in chirp.iter().enumerate() {
            ext[j] = c;
            if j != 0 {
                ext[m - j] = c;
            }
        }
        let mut chirp_hat = ext;
        fwd.execute(&mut chirp_hat, &mut BatchScratch::default());

        BluesteinPlan {
            n,
            m,
            dir,
            chirp,
            chirp_hat,
            fwd,
            bwd,
        }
    }

    /// Transform length.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// Convolution length (power of two ≥ 2n−1).
    #[inline]
    pub fn conv_len(&self) -> usize {
        self.m
    }

    /// Transform direction.
    #[inline]
    pub fn direction(&self) -> Direction {
        self.dir
    }

    /// Executes the transform in place (unnormalised): the convolution runs
    /// as a one-lane block of `conv_len()` elements in `scratch`.
    pub fn execute(&self, data: &mut [Complex64], scratch: &mut BatchScratch) {
        assert_eq!(data.len(), self.n, "data length mismatch with plan");
        let (a, b) = scratch.pair(self.m, 1);

        // a = x ⊙ b*, zero padded to m.
        for (j, (x, c)) in data.iter().zip(&self.chirp).enumerate() {
            let v = *x * c.conj();
            (a.re[j], a.im[j]) = (v.re, v.im);
        }
        a.re[self.n..].fill(0.0);
        a.im[self.n..].fill(0.0);

        let a = convolve(&self.fwd, &self.bwd, &self.chirp_hat, a, b);

        let inv_m = 1.0 / self.m as f64;
        for (j, (y, c)) in data.iter_mut().zip(&self.chirp).enumerate() {
            *y = (Complex64::new(a.re[j], a.im[j]) * c.conj()).scale(inv_m);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::max_abs_diff;
    use crate::dft::dft;

    fn signal(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|j| Complex64::new(((j * j) as f64 * 0.013).sin(), (j as f64 * 0.41).cos()))
            .collect()
    }

    fn check(n: usize, dir: Direction, tol: f64) {
        let x = signal(n);
        let plan = BluesteinPlan::new(n, dir);
        let mut y = x.clone();
        plan.execute(&mut y, &mut BatchScratch::default());
        let want = dft(&x, dir);
        let err = max_abs_diff(&y, &want);
        assert!(err < tol, "n={n} dir={dir:?} err={err}");
    }

    #[test]
    fn primes_match_naive_dft() {
        for n in [2usize, 3, 5, 7, 11, 37, 41, 97, 101, 127, 251] {
            check(n, Direction::Forward, 1e-8 * n as f64);
        }
    }

    #[test]
    fn composite_and_awkward_lengths() {
        for n in [1usize, 6, 12, 74, 111, 222, 333, 1000] {
            check(n, Direction::Forward, 1e-8 * n.max(1) as f64);
        }
    }

    #[test]
    fn backward_direction() {
        for n in [5usize, 37, 100] {
            check(n, Direction::Backward, 1e-8 * n as f64);
        }
    }

    #[test]
    fn round_trip_through_bluestein() {
        let n = 107;
        let x = signal(n);
        let f = BluesteinPlan::new(n, Direction::Forward);
        let b = BluesteinPlan::new(n, Direction::Backward);
        let mut scratch = BatchScratch::default();
        let mut y = x.clone();
        f.execute(&mut y, &mut scratch);
        b.execute(&mut y, &mut scratch);
        let y: Vec<Complex64> = y.into_iter().map(|v| v / n as f64).collect();
        assert!(max_abs_diff(&y, &x) < 1e-9 * n as f64);
    }

    #[test]
    fn conv_len_is_padded_power_of_two() {
        let p = BluesteinPlan::new(100, Direction::Forward);
        assert!(p.conv_len() >= 199);
        assert!(p.conv_len().is_power_of_two());
    }
}
