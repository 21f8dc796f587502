//! Twiddle-factor tables.
//!
//! Every FFT kernel consumes roots of unity `ω_N^k = e^(−2πik/N)` (forward)
//! or their conjugates (backward). Computing them with `sin_cos` in the
//! butterfly loops would dominate runtime, so plans precompute them here.
//! Tables are deduplicated per (length, direction) by a process-wide cache,
//! which matters for the 3-D transforms where thousands of lines of the same
//! length are transformed.

use crate::complex::Complex64;
use crate::Direction;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

/// A precomputed table of the `n`-th roots of unity for one direction.
///
/// `factor(k)` returns `e^(∓2πik/n)` (− for forward, + for backward) for
/// `k < n`, reduced modulo `n`.
#[derive(Debug)]
pub struct TwiddleTable {
    n: usize,
    dir: Direction,
    w: Vec<Complex64>,
}

impl TwiddleTable {
    /// Builds the table for transform length `n`.
    ///
    /// Every root is its own `cis(step·k)`: each entry is within an ulp or so
    /// of the true root, but the table's symmetries hold only to roundoff —
    /// `ω^(n/2)` is `(−1, ±1.2e−16)`, not `(−1, 0)`. Every spectrum pinned in
    /// the test suites was computed from exactly these values, so building
    /// the table any other way (mirrored quadrants, say) would move them all.
    pub fn new(n: usize, dir: Direction) -> Self {
        assert!(n > 0, "twiddle table length must be positive");
        let mut w = Vec::with_capacity(n);
        let sign = match dir {
            Direction::Forward => -1.0,
            Direction::Backward => 1.0,
        };
        let step = sign * 2.0 * std::f64::consts::PI / n as f64;
        for k in 0..n {
            // sin_cos per element is fine at plan time; accuracy beats speed here.
            w.push(Complex64::cis(step * k as f64));
        }
        TwiddleTable { n, dir, w }
    }

    /// The transform length this table serves.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` only for the degenerate length-0 table (never constructed).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.w.is_empty()
    }

    /// The direction this table serves.
    #[inline]
    pub fn direction(&self) -> Direction {
        self.dir
    }

    /// Root of unity `ω_n^k`, with `k` reduced modulo `n`.
    #[inline(always)]
    pub fn factor(&self, k: usize) -> Complex64 {
        // The reduction is a single compare in the common k < n case.
        let k = if k < self.n { k } else { k % self.n };
        self.w[k]
    }

    /// Unchecked access for hot loops where the caller guarantees `k < n`.
    #[inline(always)]
    pub fn factor_unreduced(&self, k: usize) -> Complex64 {
        debug_assert!(k < self.n);
        self.w[k]
    }

    /// The raw table as a slice.
    #[inline]
    pub fn as_slice(&self) -> &[Complex64] {
        &self.w
    }
}

type CacheKey = (usize, Direction);

fn cache() -> &'static Mutex<HashMap<CacheKey, Arc<TwiddleTable>>> {
    static CACHE: OnceLock<Mutex<HashMap<CacheKey, Arc<TwiddleTable>>>> = OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Returns a shared twiddle table for `(n, dir)`, building it on first use.
///
/// The cache is unbounded by design: a run touches a handful of distinct
/// lengths (the 3-D dims and their Bluestein paddings), each at most a few
/// megabytes.
pub fn shared_table(n: usize, dir: Direction) -> Arc<TwiddleTable> {
    let mut guard = cache().lock().expect("twiddle cache poisoned");
    guard
        .entry((n, dir))
        .or_insert_with(|| Arc::new(TwiddleTable::new(n, dir)))
        .clone()
}

/// Number of distinct tables currently cached (test/diagnostic hook).
pub fn cached_table_count() -> usize {
    cache().lock().expect("twiddle cache poisoned").len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forward_roots_match_definition() {
        let n = 12;
        let t = TwiddleTable::new(n, Direction::Forward);
        for k in 0..n {
            let expect = Complex64::cis(-2.0 * std::f64::consts::PI * k as f64 / n as f64);
            assert!((t.factor(k) - expect).abs() < 1e-14);
        }
    }

    #[test]
    fn backward_is_conjugate_of_forward() {
        let n = 16;
        let f = TwiddleTable::new(n, Direction::Forward);
        let b = TwiddleTable::new(n, Direction::Backward);
        for k in 0..n {
            assert!((f.factor(k).conj() - b.factor(k)).abs() < 1e-15);
        }
    }

    #[test]
    fn factor_reduces_modulo_n() {
        let n = 8;
        let t = TwiddleTable::new(n, Direction::Forward);
        for k in 0..n {
            assert_eq!(t.factor(k + n), t.factor(k));
            assert_eq!(t.factor(k + 3 * n), t.factor(k));
        }
    }

    #[test]
    fn group_property_w_a_times_w_b() {
        let n = 24;
        let t = TwiddleTable::new(n, Direction::Forward);
        for a in [0usize, 1, 5, 13] {
            for b in [0usize, 2, 7, 23] {
                let lhs = t.factor(a) * t.factor(b);
                let rhs = t.factor((a + b) % n);
                assert!((lhs - rhs).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn shared_table_deduplicates() {
        let a = shared_table(36, Direction::Forward);
        let b = shared_table(36, Direction::Forward);
        assert!(Arc::ptr_eq(&a, &b));
        let c = shared_table(36, Direction::Backward);
        assert!(!Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn unit_length_table() {
        let t = TwiddleTable::new(1, Direction::Forward);
        assert_eq!(t.len(), 1);
        assert!((t.factor(0) - Complex64::ONE).abs() < 1e-15);
    }
}
