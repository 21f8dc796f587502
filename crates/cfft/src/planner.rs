//! Plan creation and strategy selection — the crate's analogue of FFTW's
//! planner with its `FFTW_ESTIMATE` / `FFTW_MEASURE` / `FFTW_PATIENT` rigor
//! flags (§4.1 of the paper tunes FFTW with `FFTW_PATIENT`).
//!
//! [`Rigor::Estimate`] picks a kernel from static heuristics; the measuring
//! rigors time every applicable kernel on representative data and keep the
//! fastest, with [`Rigor::Patient`] averaging over more repetitions (and so
//! costing more planning time — the effect Table 4's FFTW column measures).
//! Candidates are timed the way plans are used — over one block of lines
//! through [`crate::batch::execute_batch`] — so a kernel that wins on a
//! lone line but cannot run lane-blocked does not win the measurement.

use crate::batch::{block_lines, execute_batch, BatchLayout, BatchScratch};
use crate::bluestein::BluesteinPlan;
use crate::complex::Complex64;
use crate::dft::dft_in_place;
use crate::factor::is_smooth;
use crate::mixed::MixedRadixPlan;
use crate::rader::{is_prime, RaderPlan};
use crate::Direction;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Planning rigor, mirroring FFTW's flags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Rigor {
    /// Heuristic choice, no measurement.
    Estimate,
    /// Time each applicable kernel once.
    Measure,
    /// Time each applicable kernel over several repetitions.
    Patient,
}

impl Rigor {
    fn reps(self, n: usize) -> usize {
        let base = match self {
            Rigor::Estimate => 0,
            Rigor::Measure => 2,
            Rigor::Patient => 8,
        };
        // Small transforms are noisy; measure them more.
        if n <= 1024 {
            base * 4
        } else {
            base
        }
    }
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
    /// Rader prime-length convolution (odd primes).
    Rader,
}

enum Kernel {
    Naive,
    Mixed(MixedRadixPlan),
    Bluestein(BluesteinPlan),
    Rader(RaderPlan),
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
    fn with_strategy(n: usize, dir: Direction, strategy: Strategy) -> Option<Self> {
        let kernel = match strategy {
            Strategy::Naive => Kernel::Naive,
            Strategy::MixedRadix => Kernel::Mixed(MixedRadixPlan::new(n, dir)?),
            Strategy::Bluestein => Kernel::Bluestein(BluesteinPlan::new(n, dir)),
            Strategy::Rader => Kernel::Rader(RaderPlan::new(n, dir)?),
        };
        Some(Plan1d {
            n,
            dir,
            strategy,
            kernel,
        })
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
            Kernel::Rader(p) => p.execute(data, scratch),
        }
    }

    /// Convenience wrapper that allocates its own scratch.
    pub fn execute_alloc(&self, data: &mut [Complex64]) {
        self.execute(data, &mut BatchScratch::default());
    }
}

/// Creates plans, measuring kernels per the chosen rigor. It does not
/// memoise: [`crate::cache::PlanCache`] is the one memo, and builds a
/// transient planner per miss.
pub struct Planner {
    rigor: Rigor,
    planning_time: Duration,
}

impl Planner {
    /// A planner with the given rigor.
    pub fn new(rigor: Rigor) -> Self {
        Planner {
            rigor,
            planning_time: Duration::ZERO,
        }
    }

    /// The rigor this planner measures with.
    #[inline]
    pub fn rigor(&self) -> Rigor {
        self.rigor
    }

    /// Total wall-clock time spent measuring candidate kernels so far (the
    /// quantity the paper's Table 4 reports for FFTW).
    #[inline]
    pub fn planning_time(&self) -> Duration {
        self.planning_time
    }

    /// Creates a plan for `(n, dir)`.
    pub fn plan(&mut self, n: usize, dir: Direction) -> Arc<Plan1d> {
        assert!(n >= 1, "transform length must be ≥ 1");
        let start = Instant::now();
        let plan = Arc::new(self.create(n, dir));
        self.planning_time += start.elapsed();
        plan
    }

    fn candidates(n: usize) -> Vec<Strategy> {
        let mut c = Vec::new();
        if n <= 16 {
            c.push(Strategy::Naive);
        }
        if is_smooth(n) {
            c.push(Strategy::MixedRadix);
        }
        // Bluestein is always applicable but only worth measuring when the
        // direct kernels are absent or the length is awkward.
        if !is_smooth(n) || n > 16 {
            c.push(Strategy::Bluestein);
        }
        if n >= 3 && is_prime(n) {
            c.push(Strategy::Rader);
        }
        c
    }

    fn create(&self, n: usize, dir: Direction) -> Plan1d {
        let candidates = Self::candidates(n);
        debug_assert!(!candidates.is_empty());

        if self.rigor == Rigor::Estimate {
            // Heuristic order: smooth mixed radix beats everything except
            // tiny lengths; Bluestein only when forced.
            let pick = if n <= 4 {
                Strategy::Naive
            } else if is_smooth(n) {
                Strategy::MixedRadix
            } else {
                Strategy::Bluestein
            };
            return Plan1d::with_strategy(n, dir, pick)
                .expect("estimate heuristic picked an inapplicable strategy");
        }

        let reps = self.rigor.reps(n).max(1);
        let mut best: Option<(Duration, Plan1d)> = None;
        // One block of lines, whichever kernel is being timed.
        let lines = BatchLayout::contiguous(n, block_lines(n));
        let mut data: Vec<Complex64> = (0..lines.required_len(n))
            .map(|j| Complex64::new(j as f64 * 0.001, -(j as f64) * 0.002))
            .collect();
        for strat in candidates {
            // Skip the quadratic kernel for sizes where it cannot win; its
            // measurement alone would dominate planning time.
            if strat == Strategy::Naive && n > 64 {
                continue;
            }
            let Some(plan) = Plan1d::with_strategy(n, dir, strat) else {
                continue;
            };
            let mut scratch = BatchScratch::for_plan(&plan);
            // Warm-up run populates twiddle caches.
            execute_batch(&plan, &mut data, lines, &mut scratch);
            let t0 = Instant::now();
            for _ in 0..reps {
                execute_batch(&plan, &mut data, lines, &mut scratch);
            }
            let elapsed = t0.elapsed() / reps as u32;
            match &best {
                Some((t, _)) if *t <= elapsed => {}
                _ => best = Some((elapsed, plan)),
            }
        }
        best.expect("at least one strategy is always applicable").1
    }
}

impl Default for Planner {
    #[expect(clippy::disallowed_methods, reason = "the planner's own constructor")]
    fn default() -> Self {
        Planner::new(Rigor::Estimate)
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
        let mut planner = Planner::new(Rigor::Estimate);
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
    fn measured_plans_are_correct_and_cached() {
        let mut planner = Planner::new(Rigor::Measure);
        let a = planner.plan(96, Direction::Forward);
        let x = signal(96);
        let mut y = x.clone();
        a.execute_alloc(&mut y);
        assert!(max_abs_diff(&y, &dft(&x, Direction::Forward)) < 1e-8 * 96.0);
    }

    #[test]
    fn patient_spends_more_planning_time_than_measure() {
        let n = 2048;
        let mut m = Planner::new(Rigor::Measure);
        m.plan(n, Direction::Forward);
        let mut p = Planner::new(Rigor::Patient);
        p.plan(n, Direction::Forward);
        assert!(p.planning_time() > m.planning_time());
    }

    #[test]
    fn estimate_picks_expected_strategies() {
        let mut planner = Planner::new(Rigor::Estimate);
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
        let mut planner = Planner::new(Rigor::Estimate);
        let plan = planner.plan(40, Direction::Backward);
        let x = signal(40);
        let mut y = x.clone();
        plan.execute_alloc(&mut y);
        assert!(max_abs_diff(&y, &dft(&x, Direction::Backward)) < 1e-8 * 40.0);
    }
}
