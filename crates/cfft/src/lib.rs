//! # cfft — complex FFT kernels, planner, and layout rearrangement
//!
//! The serial-FFT substrate of this workspace: everything the paper obtains
//! from FFTW is implemented here from scratch.
//!
//! * [`planner::Planner`] mirrors FFTW's `ESTIMATE` planning: one static
//!   rule picks the kernel from the length, so every plan is reproducible.
//! * [`cache::PlanCache`] shares plans process-wide (FFTW's wisdom): the
//!   transform entry points draw from [`cache::PlanCache::global`] so
//!   repeated geometries never replan.
//! * Kernels: naive [`dft`], Stockham [`mixed`] radix and [`bluestein`] for
//!   every other length.
//! * [`batch`] runs a plan over many strided lines (FFTW's advanced
//!   interface), which is how the 3-D steps consume it — a
//!   [`batch::Block`] of lines at a time, split into a real and an
//!   imaginary `f64` plane, the one form the Stockham stages know; its
//!   [`batch::BatchScratch`] is the one scratch under every kernel.
//! * [`transpose`] provides the blocked axis permutations used by the
//!   Transpose step, including the `Nx = Ny` fast path of §3.5.
//! * [`real`] implements the real-to-complex transform mentioned in §2.3.
//!
//! All transforms are unnormalised in both directions (FFTW convention):
//! forward followed by backward multiplies the data by `N`.
//!
//! ```
//! use cfft::{Direction, planner::Planner, Complex64};
//!
//! let mut planner = Planner::new();
//! let plan = planner.plan(240, Direction::Forward);
//! let mut data = vec![Complex64::new(1.0, 0.0); 240];
//! plan.execute_alloc(&mut data);
//! assert!((data[0].re - 240.0).abs() < 1e-9); // DC bin holds the sum
//! ```

#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::float_cmp))]
#![expect(clippy::manual_is_multiple_of, reason = "is_multiple_of needs 1.87")]
#![expect(clippy::len_without_is_empty, reason = "a plan's len is its size")]
pub mod batch;
pub mod bluestein;
pub mod cache;
pub mod complex;
pub mod dft;
pub mod factor;
pub mod mixed;
pub mod planner;
pub mod real;
pub mod transpose;
pub mod twiddle;

pub use cache::{CacheStats, PlanCache};
pub use complex::Complex64;
pub use planner::{Plan1d, Planner, Rigor};

/// Transform direction. Forward uses `ω_N = e^{−2πi/N}` (Equation 1 of the
/// paper); backward uses the conjugate roots.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Time domain → frequency domain.
    Forward,
    /// Frequency domain → time domain (unnormalised).
    Backward,
}

impl Direction {
    /// The opposite direction.
    pub fn reverse(self) -> Direction {
        match self {
            Direction::Forward => Direction::Backward,
            Direction::Backward => Direction::Forward,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn direction_reverse_is_involutive() {
        assert_eq!(Direction::Forward.reverse(), Direction::Backward);
        assert_eq!(Direction::Forward.reverse().reverse(), Direction::Forward);
    }
}
