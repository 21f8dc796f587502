//! Rader's algorithm for prime transform lengths.
//!
//! For prime `n`, the multiplicative group mod `n` is cyclic with some
//! generator `g`; reindexing input and output by powers of `g` turns the
//! non-DC part of the DFT into a length-`(n−1)` cyclic convolution:
//!
//! ```text
//! X[g^(−m)] = x[0] + Σ_j x[g^j] · ω^(g^(j−m))
//! ```
//!
//! The convolution runs through zero-padded power-of-two FFTs with the
//! kernel spectrum precomputed at plan time, so execution costs one
//! forward and one inverse FFT — an alternative to Bluestein that the
//! planner can measure against it.

use crate::batch::BatchScratch;
use crate::complex::Complex64;
use crate::mixed::{convolve, MixedRadixPlan};
use crate::twiddle::shared_table;
use crate::Direction;

/// Returns `true` for prime `n` (trial division; plan-time only).
pub fn is_prime(n: usize) -> bool {
    if n < 2 {
        return false;
    }
    let mut d = 2usize;
    while d * d <= n {
        if n % d == 0 {
            return false;
        }
        d += 1;
    }
    true
}

/// Finds a generator of the multiplicative group mod prime `p`.
fn find_generator(p: usize) -> usize {
    // Factor p−1, then test candidates g by checking g^((p−1)/q) ≠ 1 for
    // every prime factor q.
    let m = p - 1;
    let mut factors = Vec::new();
    let mut rem = m;
    let mut d = 2;
    while d * d <= rem {
        if rem % d == 0 {
            factors.push(d);
            while rem % d == 0 {
                rem /= d;
            }
        }
        d += 1;
    }
    if rem > 1 {
        factors.push(rem);
    }
    'cand: for g in 2..p {
        for &q in &factors {
            if pow_mod(g, m / q, p) == 1 {
                continue 'cand;
            }
        }
        return g;
    }
    unreachable!("every prime has a primitive root")
}

fn pow_mod(mut base: usize, mut exp: usize, modulus: usize) -> usize {
    let mut acc = 1u128;
    let mut b = base as u128 % modulus as u128;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = acc * b % modulus as u128;
        }
        b = b * b % modulus as u128;
        exp >>= 1;
    }
    base = acc as usize;
    base
}

/// A prepared Rader plan for one prime `(length, direction)` pair.
pub struct RaderPlan {
    n: usize,
    m: usize,
    dir: Direction,
    /// `perm_in[j] = g^j mod n` — gather order of the inputs.
    perm_in: Vec<usize>,
    /// `perm_out[m] = g^(−m) mod n` — scatter order of the outputs.
    perm_out: Vec<usize>,
    /// Forward FFT (length `pad`) of the cyclically extended kernel
    /// `b[j] = ω^(g^(−j))`.
    kernel_hat: Vec<Complex64>,
    pad: usize,
    fwd: MixedRadixPlan,
    bwd: MixedRadixPlan,
}

impl RaderPlan {
    /// Builds the plan; `None` unless `n` is an odd prime.
    pub fn new(n: usize, dir: Direction) -> Option<Self> {
        if n < 3 || !is_prime(n) {
            return None;
        }
        let m = n - 1;
        let g = find_generator(n);
        let ginv = pow_mod(g, n - 2, n); // g^(p−2) = g^(−1) mod p

        let mut perm_in = Vec::with_capacity(m);
        let mut acc = 1usize;
        for _ in 0..m {
            perm_in.push(acc);
            acc = acc * g % n;
        }
        let mut perm_out = Vec::with_capacity(m);
        let mut acc = 1usize;
        for _ in 0..m {
            perm_out.push(acc);
            acc = acc * ginv % n;
        }

        // Cyclic convolution of length m via padded power-of-two FFTs.
        let pad = if m.is_power_of_two() {
            m
        } else {
            (2 * m - 1).next_power_of_two()
        };
        let fwd = MixedRadixPlan::new(pad, Direction::Forward).expect("pow2 is smooth");
        let bwd = MixedRadixPlan::new(pad, Direction::Backward).expect("pow2 is smooth");

        // Kernel b[j] = ω^(perm_out[j]), wrapped cyclically into the pad.
        let table = shared_table(n, dir);
        let mut ext = vec![Complex64::ZERO; pad];
        for j in 0..m {
            let v = table.factor(perm_out[j]);
            if pad == m {
                ext[j] = v;
            } else {
                // Cyclic wrap: positions j and j + m alias index j mod m.
                ext[j] += v;
                if j > 0 {
                    ext[pad - m + j] += v;
                }
            }
        }
        let mut kernel_hat = ext;
        fwd.execute(&mut kernel_hat, &mut BatchScratch::default());

        Some(RaderPlan {
            n,
            m,
            dir,
            perm_in,
            perm_out,
            kernel_hat,
            pad,
            fwd,
            bwd,
        })
    }

    /// Transform length (an odd prime).
    pub fn len(&self) -> usize {
        self.n
    }

    /// `false` — plans always cover at least 3 points.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Transform direction.
    pub fn direction(&self) -> Direction {
        self.dir
    }

    /// Executes the (unnormalised) prime-length DFT in place: the
    /// convolution runs as a one-lane block in `scratch`.
    pub fn execute(&self, data: &mut [Complex64], scratch: &mut BatchScratch) {
        assert_eq!(data.len(), self.n, "data length mismatch with plan");
        let (a, b) = scratch.pair(self.pad, 1);

        let x0 = data[0];
        let sum: Complex64 = data.iter().copied().sum();

        // Gather by powers of g, zero padded.
        for (j, &from) in self.perm_in.iter().enumerate() {
            (a.re[j], a.im[j]) = (data[from].re, data[from].im);
        }
        a.re[self.m..].fill(0.0);
        a.im[self.m..].fill(0.0);

        let a = convolve(&self.fwd, &self.bwd, &self.kernel_hat, a, b);
        let inv = 1.0 / self.pad as f64;

        data[0] = sum;
        for (mi, &to) in self.perm_out.iter().enumerate() {
            data[to] = x0 + Complex64::new(a.re[mi], a.im[mi]).scale(inv);
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
            .map(|j| Complex64::new((j as f64 * 0.23).sin(), (j as f64 * 0.61).cos() - 0.1))
            .collect()
    }

    #[test]
    fn primality_and_generators() {
        assert!(is_prime(2) && is_prime(3) && is_prime(31) && is_prime(257));
        assert!(!is_prime(1) && !is_prime(9) && !is_prime(91));
        for p in [3usize, 5, 7, 11, 13, 101] {
            let g = find_generator(p);
            // g generates: the powers hit every nonzero residue.
            let mut seen = vec![false; p];
            let mut acc = 1;
            for _ in 0..p - 1 {
                assert!(!seen[acc], "g={g} repeats early for p={p}");
                seen[acc] = true;
                acc = acc * g % p;
            }
        }
    }

    #[test]
    fn matches_naive_dft_for_primes() {
        for n in [3usize, 5, 7, 11, 13, 17, 31, 61, 97, 127, 257] {
            let x = signal(n);
            let plan = RaderPlan::new(n, Direction::Forward).unwrap();
            let mut y = x.clone();
            plan.execute(&mut y, &mut BatchScratch::default());
            let want = dft(&x, Direction::Forward);
            let err = max_abs_diff(&y, &want);
            assert!(err < 1e-8 * n as f64, "n={n} err={err}");
        }
    }

    #[test]
    fn backward_direction_works() {
        for n in [5usize, 13, 101] {
            let x = signal(n);
            let plan = RaderPlan::new(n, Direction::Backward).unwrap();
            let mut y = x.clone();
            plan.execute(&mut y, &mut BatchScratch::default());
            assert!(max_abs_diff(&y, &dft(&x, Direction::Backward)) < 1e-8 * n as f64);
        }
    }

    #[test]
    fn rejects_composites_and_tiny() {
        assert!(RaderPlan::new(9, Direction::Forward).is_none());
        assert!(RaderPlan::new(2, Direction::Forward).is_none());
        assert!(RaderPlan::new(1, Direction::Forward).is_none());
    }

    #[test]
    fn agrees_with_bluestein() {
        use crate::bluestein::BluesteinPlan;
        let n = 127;
        let x = signal(n);
        let r = RaderPlan::new(n, Direction::Forward).unwrap();
        let b = BluesteinPlan::new(n, Direction::Forward);
        let mut yr = x.clone();
        r.execute(&mut yr, &mut BatchScratch::default());
        let mut yb = x.clone();
        b.execute(&mut yb, &mut BatchScratch::default());
        assert!(max_abs_diff(&yr, &yb) < 1e-8 * n as f64);
    }

    #[test]
    fn round_trip_through_rader() {
        let n = 61;
        let x = signal(n);
        let f = RaderPlan::new(n, Direction::Forward).unwrap();
        let b = RaderPlan::new(n, Direction::Backward).unwrap();
        let mut y = x.clone();
        let mut scratch = BatchScratch::default();
        f.execute(&mut y, &mut scratch);
        b.execute(&mut y, &mut scratch);
        let y: Vec<Complex64> = y.into_iter().map(|v| v / n as f64).collect();
        assert!(max_abs_diff(&y, &x) < 1e-9 * n as f64);
    }
}
