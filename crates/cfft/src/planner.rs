//! Plan creation and strategy selection — the crate's analogue of FFTW's
//! planner at `FFTW_ESTIMATE` (§4.1 of the paper tunes FFTW with
//! `FFTW_PATIENT`; Table 4's FFTW planning column is modelled, not
//! measured).
//!
//! One static rule picks the kernel from the length alone, so every plan is
//! reproducible: naive up to 4, Stockham mixed radix for smooth lengths,
//! Bluestein otherwise.

use crate::batch::BatchScratch;
use crate::bluestein::BluesteinPlan;
use crate::complex::Complex64;
use crate::dft::dft_in_place;
use crate::mixed::MixedRadixPlan;
use crate::Direction;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Planning rigor, after FFTW's flags. Only the heuristic one exists: the
/// planner measures nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rigor {
    /// Heuristic choice, no measurement.
    Estimate,
}

/// Which kernel a plan executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Strategy {
    /// Naive O(N²) definition — only ever chosen for tiny lengths.
    Naive,
    /// Out-of-place Stockham mixed radix (smooth lengths).
    MixedRadix,
    /// Chirp-z convolution (any length).
    Bluestein,
}

enum Kernel {
    Naive,
    Mixed(MixedRadixPlan),
    Bluestein(BluesteinPlan),
}

/// A ready-to-execute 1-D transform of fixed length and direction.
///
/// Cheap to clone through [`Arc`]; execution is `&self` so one plan can be
/// shared by many lines of a 3-D transform.
pub struct Plan1d {
    n: usize,
    dir: Direction,
    strategy: Strategy,
    kernel: Kernel,
}

impl std::fmt::Debug for Plan1d {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Plan1d")
            .field("n", &self.n)
            .field("dir", &self.dir)
            .field("strategy", &self.strategy)
            .finish()
    }
}

impl Plan1d {
    /// The plan the heuristic picks for `(n, dir)`: smooth mixed radix
    /// (the lengths [`MixedRadixPlan::new`] accepts) beats everything except
    /// tiny lengths; Bluestein only when forced.
    fn estimate(n: usize, dir: Direction) -> Self {
        let (strategy, kernel) = if n <= 4 {
            (Strategy::Naive, Kernel::Naive)
        } else if let Some(p) = MixedRadixPlan::new(n, dir) {
            (Strategy::MixedRadix, Kernel::Mixed(p))
        } else {
            let p = BluesteinPlan::new(n, dir);
            (Strategy::Bluestein, Kernel::Bluestein(p))
        };
        Plan1d {
            n,
            dir,
            strategy,
            kernel,
        }
    }

    /// Transform length.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` iff the plan is for length 0 (never constructed; lengths ≥ 1).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Transform direction.
    #[inline]
    pub fn direction(&self) -> Direction {
        self.dir
    }

    /// The kernel the planner selected.
    #[inline]
    pub fn strategy(&self) -> Strategy {
        self.strategy
    }

    /// The Stockham kernel, when that is what this plan runs — the one
    /// kernel [`crate::batch`] can push a block of several lines through.
    #[inline]
    pub(crate) fn stockham(&self) -> Option<&MixedRadixPlan> {
        match &self.kernel {
            Kernel::Mixed(p) => Some(p),
            _ => None,
        }
    }

    /// Executes the (unnormalised) transform in place. Any `scratch` will
    /// do: it grows to what the kernel needs.
    pub fn execute(&self, data: &mut [Complex64], scratch: &mut BatchScratch) {
        match &self.kernel {
            Kernel::Naive => dft_in_place(data, self.dir),
            Kernel::Mixed(p) => p.execute(data, scratch),
            Kernel::Bluestein(p) => p.execute(data, scratch),
        }
    }

    /// Convenience wrapper that allocates its own scratch.
    pub fn execute_alloc(&self, data: &mut [Complex64]) {
        self.execute(data, &mut BatchScratch::default());
    }
}

/// Creates plans by the heuristic. It does not memoise:
/// [`crate::cache::PlanCache`] is the one memo, and builds a transient
/// planner per miss.
pub struct Planner {
    planning_time: Duration,
}

impl Planner {
    /// A planner that has planned nothing yet.
    pub fn new() -> Self {
        Planner {
            planning_time: Duration::ZERO,
        }
    }

    /// Total wall-clock time spent creating plans so far.
    #[inline]
    pub fn planning_time(&self) -> Duration {
        self.planning_time
    }

    /// Creates a plan for `(n, dir)`.
    pub fn plan(&mut self, n: usize, dir: Direction) -> Arc<Plan1d> {
        assert!(n >= 1, "transform length must be ≥ 1");
        let start = Instant::now();
        let plan = Arc::new(Plan1d::estimate(n, dir));
        self.planning_time += start.elapsed();
        plan
    }
}

impl Default for Planner {
    #[expect(clippy::disallowed_methods, reason = "the planner's own constructor")]
    fn default() -> Self {
        Planner::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::max_abs_diff;
    use crate::dft::dft;

    fn signal(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|j| Complex64::new((j as f64).sin(), (j as f64 * 0.5).cos()))
            .collect()
    }

    #[test]
    fn estimate_plans_are_correct_for_mixed_sizes() {
        let mut planner = Planner::new();
        for n in [1usize, 2, 3, 4, 13, 16, 37, 48, 128, 250, 256, 37 * 3] {
            let plan = planner.plan(n, Direction::Forward);
            let x = signal(n);
            let mut y = x.clone();
            plan.execute_alloc(&mut y);
            assert!(
                max_abs_diff(&y, &dft(&x, Direction::Forward)) < 1e-7 * n as f64,
                "n={n}"
            );
        }
    }

    #[test]
    fn estimate_picks_expected_strategies() {
        let mut planner = Planner::new();
        assert_eq!(
            planner.plan(3, Direction::Forward).strategy(),
            Strategy::Naive
        );
        assert_eq!(
            planner.plan(240, Direction::Forward).strategy(),
            Strategy::MixedRadix
        );
        // 74 = 2·37 exceeds the direct-prime limit, so Bluestein handles it.
        assert_eq!(
            planner.plan(74, Direction::Forward).strategy(),
            Strategy::Bluestein
        );
        assert_eq!(
            planner.plan(2 * 997, Direction::Forward).strategy(),
            Strategy::Bluestein
        );
    }

    #[test]
    fn direction_is_respected() {
        let mut planner = Planner::new();
        let plan = planner.plan(40, Direction::Backward);
        let x = signal(40);
        let mut y = x.clone();
        plan.execute_alloc(&mut y);
        assert!(max_abs_diff(&y, &dft(&x, Direction::Backward)) < 1e-8 * 40.0);
    }
}
