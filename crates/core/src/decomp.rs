//! 1-D (slab) domain decomposition (§2.2) and slab-vs-pencil selection.
//!
//! The input array is split into x-slabs (one per rank); after the
//! all-to-all it is split into y-slabs. The general case — extents not
//! divisible by `p` — is handled the way the paper's code does ("our
//! current code handles the general case whether Nx and Ny are divisible
//! by p or not"): the first `N mod p` ranks carry one extra plane.
//!
//! [`auto_select`] chooses between this slab decomposition and the 2-D
//! pencil decomposition ([`crate::pencil`]) per `(N, p)` by pricing both
//! overlapped pipelines on the simnet cost model — §2.2's trade-off
//! ("slabs can win at moderate scale, pencils scale to N²") made
//! operational. It prices two [`crate::sim_env::Simulation`]s and states
//! no validation of its own: an infeasible geometry is the typed error
//! their constructors return.

#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

use crate::error::Error;
use crate::params::{ProblemSpec, TuningParams};
use crate::pencil::{pencil_seed, PencilGrid};
use crate::real_env::Variant;
use crate::sim_env::Simulation;
use simnet::Platform;

/// How one axis of length `n` is divided among `p` ranks.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AxisSplit {
    counts: Vec<usize>,
    offsets: Vec<usize>,
}

impl AxisSplit {
    /// Splits `n` planes over `p` ranks, big blocks first.
    pub fn new(n: usize, p: usize) -> Self {
        assert!(p >= 1, "cannot split over zero ranks");
        let base = n / p;
        let extra = n % p;
        let mut counts = Vec::with_capacity(p);
        let mut offsets = Vec::with_capacity(p);
        let mut off = 0;
        for r in 0..p {
            let c = base + usize::from(r < extra);
            counts.push(c);
            offsets.push(off);
            off += c;
        }
        AxisSplit { counts, offsets }
    }

    /// Number of ranks.
    pub fn ranks(&self) -> usize {
        self.counts.len()
    }

    /// Planes owned by `rank`.
    #[inline]
    pub fn count(&self, rank: usize) -> usize {
        self.counts[rank]
    }

    /// First plane owned by `rank`.
    #[inline]
    pub fn offset(&self, rank: usize) -> usize {
        self.offsets[rank]
    }

    /// The planes owned by `rank`.
    pub(crate) fn range(&self, rank: usize) -> std::ops::Range<usize> {
        self.offsets[rank]..self.offsets[rank] + self.counts[rank]
    }

    /// All counts, rank-ordered.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// The rank owning plane `i`.
    pub fn owner(&self, i: usize) -> usize {
        debug_assert!(
            i < self.offsets.last().copied().unwrap_or(0)
                + self.counts.last().copied().unwrap_or(0)
        );
        // Counts are non-increasing, so a linear scan from the estimated
        // position is exact; p is small enough that binary search wins
        // nothing.
        match self.offsets.binary_search(&i) {
            Ok(r) => r,
            Err(r) => r - 1,
        }
    }

    /// Largest per-rank count (`⌈n/p⌉`).
    pub fn max_count(&self) -> usize {
        self.counts.first().copied().unwrap_or(0)
    }
}

/// The two axis splits a slab-decomposed 3-D FFT needs: x-slabs before the
/// all-to-all, y-slabs after.
#[derive(Debug, Clone)]
pub struct Decomp {
    /// Split of the x axis (input distribution).
    pub x: AxisSplit,
    /// Split of the y axis (output distribution).
    pub y: AxisSplit,
}

impl Decomp {
    /// Builds the decomposition for `nx`, `ny` over `p` ranks.
    pub fn new(nx: usize, ny: usize, p: usize) -> Self {
        Decomp {
            x: AxisSplit::new(nx, p),
            y: AxisSplit::new(ny, p),
        }
    }
}

/// Which decomposition [`auto_select`] picked for a `(spec, p)` point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decomposition {
    /// 1-D slab decomposition (the paper's design; parallelism ≤ min(Nx, Ny)).
    Slab,
    /// 2-D pencil decomposition on the given grid (parallelism ≤ Nx·Ny).
    Pencil(PencilGrid),
}

/// Picks the faster decomposition for running `spec`'s problem over `p`
/// ranks on `platform`, by pricing both **overlapped** pipelines on the
/// simnet cost model: the slab NEW variant with its seed parameters vs the
/// pencil backend on the near-square grid with [`pencil_seed`]. Past the
/// slab scaling wall (`p > min(Nx, Ny)`, where slab ranks idle) the pencil
/// wins without simulation.
///
/// `spec.p` is ignored; `p` is the rank count under consideration, so one
/// spec can be swept over a ladder of scales (the `decomp_crossover`
/// bench does exactly that).
pub fn auto_select(
    platform: Platform,
    spec: &ProblemSpec,
    p: usize,
) -> Result<Decomposition, Error> {
    let spec = ProblemSpec { p, ..*spec };
    spec.check_extents()?;
    let grid = PencilGrid::try_near_square(p)?;
    if p > spec.nx.min(spec.ny) {
        // Slabs cannot use more than min(Nx, Ny) ranks; no need to price.
        return Ok(Decomposition::Pencil(grid));
    }
    let seed = TuningParams::seed(&spec);
    let slab = Simulation::slab(spec, Variant::New, seed)?.first(platform.clone())?;
    let pencil = Simulation::pencil(spec, grid, pencil_seed(&spec, grid))?.first(platform)?;
    Ok(if slab.report.time <= pencil.report.time {
        Decomposition::Slab
    } else {
        Decomposition::Pencil(grid)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::ParamError;
    use simnet::model::umd_cluster;

    #[test]
    fn divisible_split_is_uniform() {
        let s = AxisSplit::new(256, 16);
        assert!(s.counts().iter().all(|&c| c == 16));
        assert_eq!(s.offset(5), 80);
        assert_eq!(s.max_count(), 16);
    }

    #[test]
    fn non_divisible_split_partitions_exactly() {
        for n in [7usize, 10, 100, 255, 257] {
            for p in [1usize, 2, 3, 5, 8, 16] {
                let s = AxisSplit::new(n, p);
                let total: usize = s.counts().iter().sum();
                assert_eq!(total, n, "n={n} p={p}");
                // Offsets are the prefix sums.
                let mut off = 0;
                for r in 0..p {
                    assert_eq!(s.offset(r), off);
                    off += s.count(r);
                }
                // Counts differ by at most one, larger first.
                let max = s.count(0);
                assert!(s.counts().iter().all(|&c| c == max || c + 1 == max));
            }
        }
    }

    #[test]
    fn owner_inverts_offsets() {
        let s = AxisSplit::new(17, 5); // counts 4,4,3,3,3
        for i in 0..17 {
            let r = s.owner(i);
            assert!(
                i >= s.offset(r) && i < s.offset(r) + s.count(r),
                "i={i} r={r}"
            );
        }
    }

    #[test]
    fn more_ranks_than_planes_gives_empty_slabs() {
        let s = AxisSplit::new(3, 5);
        assert_eq!(s.counts(), &[1, 1, 1, 0, 0]);
        assert_eq!(s.offset(4), 3);
    }

    #[test]
    fn decomp_builds_both_axes() {
        let d = Decomp::new(10, 20, 4);
        assert_eq!(d.x.counts(), &[3, 3, 2, 2]);
        assert_eq!(d.y.counts(), &[5, 5, 5, 5]);
    }

    #[test]
    fn auto_select_rejects_zero_ranks() {
        let spec = ProblemSpec::cube(64, 1);
        assert_eq!(
            auto_select(umd_cluster(), &spec, 0),
            Err(Error::InfeasibleParams(ParamError::ZeroRanks))
        );
    }

    #[test]
    fn auto_select_goes_pencil_past_the_slab_scaling_wall() {
        // p > min(Nx, Ny): slabs cannot even use the ranks.
        let spec = ProblemSpec::cube(64, 1);
        match auto_select(umd_cluster(), &spec, 128) {
            Ok(Decomposition::Pencil(g)) => assert_eq!(g.len(), 128),
            other => panic!("expected pencil past the wall, got {other:?}"),
        }
    }

    #[test]
    fn auto_select_prefers_slab_at_small_scale() {
        // One exchange beats two when both fit comfortably.
        let spec = ProblemSpec::cube(256, 1);
        assert_eq!(
            auto_select(umd_cluster(), &spec, 4),
            Ok(Decomposition::Slab)
        );
    }
}
