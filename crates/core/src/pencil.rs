//! 2-D (pencil) domain decomposition — the paper's §7 future work, realised
//! as what §7 says it is: the same Algorithm 1, run twice.
//!
//! §2.2 explains the trade-off: pencils scale to `N²` processes but need
//! *two* all-to-all exchanges with more complex patterns, so slabs can win
//! at moderate scale. A pencil transform is two exchange stages on
//! `crate::executor` — the one real [`crate::pipeline::OverlapEnv`], which
//! the slab transform's single stage runs on as well — and this module is
//! their front: the process grid, the subcommunicator split, the two stage
//! shapes, and one entry point, [`PencilSession`] — the paper's tile-window
//! overlap applied to **both** pencil exchanges, with the degradation ladder
//! and tracing: the subcommunicators split and both stages pinned once,
//! per-tile persistent plans and session-owned memory (setup once, execute
//! many; a one-shot transform is a session executed once). The blocking
//! reference transform is the same session at [`pencil_blocking`]'s vector:
//! one tile per stage, `W = 0`, no polls — one all-to-all per exchange
//! within the row/column subcommunicators.
//!
//! Its cost model on `simnet` ([`crate::sim_env::Simulation::pencil`])
//! prices the same two stages from `crate::stage::pencil`; the
//! `decomp_crossover` bench and [`crate::decomp::auto_select`] use it to
//! locate the slab-vs-pencil crossover.
//!
//! The process grid is `pr × pc` (`p = pr · pc`). Distributions:
//!
//! ```text
//! stage 0: (X_r, Y_c, Z_all)  x-y-z layout   → FFTz
//! row exchange (size pc):     z ↔ y          {τ = x_l, o = y_c, v = z}
//! stage 1: (X_r, Y_all, Z_c)  x-z-y layout   → FFTy
//! column exchange (size pr):  y ↔ x          {τ = z_l, o = x_l, v = y}
//! stage 2: (X_all, Y2_r, Z_c) y-z-x layout   → FFTx
//! ```
//!
//! The row stage tiles local x (FFTz + Pack on one x-slice overlap the
//! previous slices' row exchanges; Unpack + FFTy overlap the next ones) and
//! the column stage local z the same way, ending in FFTx. Every member of a
//! row subcommunicator shares `nxl` (and every column member shares `nzl`),
//! so the tile partitions — and therefore the collective call sequences —
//! agree across each subgroup by construction. Neither stage arms an
//! integrity stage or visits a fault trigger point (DESIGN.md §16).

use crate::decomp::AxisSplit;
use crate::error::Error;
use crate::executor::{Axis, Fft, Local, Session, StageComm, StageShape};
use crate::params::{ParamError, ProblemSpec, TuningParams};
use crate::pipeline::{Recovery, Resilience};
use crate::serial::{block, test_field};
use crate::trace::{NoopRecorder, Recorder};
use cfft::planner::Rigor;
use cfft::{Complex64, Direction, PlanCache};
use mpisim::Comm;

/// The pencil process grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PencilGrid {
    /// Rows (splits x before the exchanges, y after).
    pub pr: usize,
    /// Columns (splits y before the exchanges, z after).
    pub pc: usize,
}

impl PencilGrid {
    /// A near-square grid for `p` processes: the largest divisor
    /// `pr ≤ √p`, paired with `pc = p / pr` (so `pr ≤ pc` always).
    ///
    /// # Panics
    /// On `p = 0`; use [`PencilGrid::try_near_square`] for the typed error.
    pub fn near_square(p: usize) -> Self {
        Self::try_near_square(p).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible [`PencilGrid::near_square`]: `p = 0` comes back as
    /// [`Error::InfeasibleParams`]`(`[`ParamError::ZeroRanks`]`)` instead of
    /// silently building the empty `1×0` grid (whose `coords` divides by
    /// zero).
    pub fn try_near_square(p: usize) -> Result<Self, Error> {
        if p == 0 {
            return Err(ParamError::ZeroRanks.into());
        }
        let mut pr = (p as f64).sqrt() as usize;
        while pr > 1 && p % pr != 0 {
            pr -= 1;
        }
        let pr = pr.max(1);
        Ok(PencilGrid { pr, pc: p / pr })
    }

    /// Every grid shape covering exactly `p` ranks: one entry per divisor
    /// `pr` of `p`, ordered by `pr`. The tuner's grid-shape dimension
    /// indexes into this list. Empty for `p = 0`.
    pub fn divisor_pairs(p: usize) -> Vec<PencilGrid> {
        (1..=p)
            .filter(|pr| p % pr == 0)
            .map(|pr| PencilGrid { pr, pc: p / pr })
            .collect()
    }

    /// Total processes.
    pub fn len(&self) -> usize {
        self.pr * self.pc
    }

    /// `true` for the degenerate empty grid.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Checks the grid covers exactly `expected` ranks; the empty grid
    /// never validates (even against `expected = 0`), so a validated grid
    /// always has `pc ≥ 1` and [`PencilGrid::coords`] cannot divide by
    /// zero.
    pub fn validate(&self, expected: usize) -> Result<(), Error> {
        if self.is_empty() || self.len() != expected {
            return Err(Error::GridMismatch {
                pr: self.pr,
                pc: self.pc,
                expected,
            });
        }
        Ok(())
    }

    /// `(row, col)` of a linear rank. Callers must [`validate`] the grid
    /// first; the empty grid has `pc = 0` and no coordinates.
    ///
    /// [`validate`]: PencilGrid::validate
    pub fn coords(&self, rank: usize) -> (usize, usize) {
        (rank / self.pc, rank % self.pc)
    }
}

/// Result of a pencil transform on one rank: the `(Y2_r, Z_c)` pencil of
/// the spectrum in `y-z-x` layout (x contiguous).
pub struct PencilOutput {
    /// Local data, `ny2l · nzl · nx` elements.
    pub data: Vec<Complex64>,
    /// This rank's y-extent after the second exchange.
    pub ny2l: usize,
    /// This rank's z-extent after the first exchange.
    pub nzl: usize,
}

/// Row communicator (same row, ranked by column) and column communicator
/// (same column, ranked by row). Collective over `comm`; the grid must
/// already be validated against `comm.size()`.
fn split_pencil(comm: &Comm, grid: PencilGrid) -> Result<(Comm, Comm), Error> {
    let (row, col) = grid.coords(comm.rank());
    let excluded = Error::Internal("a pencil split excluded its own rank");
    let row_comm = comm.split(row as i64, col as i64).ok_or(excluded)?;
    let col_comm = comm
        .split((grid.pr + col) as i64, row as i64)
        .ok_or(excluded)?;
    Ok((row_comm, col_comm))
}

/// Result of one overlapped pencil transform.
pub struct PencilRunOutput {
    /// The spectrum pencil.
    pub output: PencilOutput,
    /// What the resilient driver had to do across both stages (tile
    /// numbers in [`Recovery::actions`] count stage-2 tiles after
    /// stage 1's).
    pub recovery: Recovery,
    /// Exchange setups performed: one per persistent-plan init — one per
    /// tile for a [`PencilSession`]'s first execution, 0 from its second on.
    pub exchange_setups: u64,
}

/// What both backends require of a pencil transform before it runs (the
/// model passes `spec.p` for `comm_size`).
pub(crate) fn validate_pencil(
    comm_size: usize,
    spec: &ProblemSpec,
    grid: PencilGrid,
    params: &TuningParams,
) -> Result<(), Error> {
    grid.validate(comm_size)?;
    grid.validate(spec.p)?;
    spec.check_extents()?;
    if params.t < 1 {
        return Err(ParamError::TileSize(params.t).into());
    }
    if params.threads < 1 {
        return Err(ParamError::Threads(params.threads).into());
    }
    Ok(())
}

/// The row and the column stage on `rank`. Both take `t`, `w`, `threads`
/// and the `F*` counts from the tuning vector — `fp` polls during Pack, `fu`
/// and the post-FFT's own count after it — run one sub-tile per tile (the
/// slab's `px/pz/uy/uz` are ignored), plan at [`Rigor::Estimate`] and arm no
/// integrity stage.
fn stages(
    spec: &ProblemSpec,
    grid: PencilGrid,
    p: &TuningParams,
    dir: Direction,
    rank: usize,
) -> [StageShape; 2] {
    let (nx, ny, nz) = (spec.nx, spec.ny, spec.nz);
    let (row, col) = grid.coords(rank);
    let xs = AxisSplit::new(nx, grid.pr); // X_r: the input's x
    let ys = AxisSplit::new(ny, grid.pc); // Y_c: the input's y
    let zs = AxisSplit::new(nz, grid.pc); // Z_c: z after the row exchange
    let y2s = AxisSplit::new(ny, grid.pr); // Y2_r: y after the column exchange
    let (nxl, nyc, nzl) = (xs.count(row), ys.count(col), zs.count(col));
    let cache = PlanCache::global();
    let fft = |n: usize, axis: Axis| Fft {
        plan: cache.plan(n, dir, Rigor::Estimate),
        axis,
        abft: None,
    };
    let whole_tile = (usize::MAX, usize::MAX);
    // z ↔ y within the row: x_l tiled, the z of every (x_l, y_c) line split
    // across the columns, y completed. x-y-z → x-z-y.
    let row_stage = StageShape {
        n_tau: nxl,
        t: p.t,
        n_v: nz,
        v: zs,
        o: ys,
        me: col,
        src: (nyc * nz, nz),
        dst: (nzl * ny, ny),
        pre: Some(fft(nz, Axis::Z)),
        post: fft(ny, Axis::Y),
        polls: [0, p.fp, 0, p.fu + p.fy],
        pack_sub: whole_tile,
        unpack_sub: whole_tile,
        seal: false,
        w: p.w,
        threads: p.threads,
    };
    // y ↔ x within the column: z_l tiled, the y of every (z_l, x_l) line
    // split across the rows, x completed. x-z-y → y-z-x.
    let col_stage = StageShape {
        n_tau: nzl,
        t: p.t,
        n_v: ny,
        v: y2s,
        o: xs,
        me: row,
        src: (ny, nzl * ny),
        dst: (nx, nzl * nx),
        pre: None,
        post: fft(nx, Axis::X),
        polls: [0, p.fp, 0, p.fu + p.fx],
        pack_sub: whole_tile,
        unpack_sub: whole_tile,
        seal: false,
        w: p.w,
        threads: p.threads,
    };
    [row_stage, col_stage]
}

/// Distributed 3-D FFT with 2-D (pencil) decomposition and the paper's
/// tile-window overlap on **both** exchanges, setup once and execute many:
/// the row/column subcommunicators are split and both stages pinned once,
/// every tile's exchange runs as a persistent plan (`alltoallv_init` on
/// first use, `start`/`wait` afterwards) and the working memory (pack
/// buffer, `W + 1` pooled receive blocks, the intermediate pencil, scratch)
/// is kept, so repeated transforms of one geometry pay zero exchange setups
/// and allocate nothing but their output after the first execution.
/// Dropping the session frees every plan (so no MC006 lint fires);
/// [`PencilSession::free`] does the same and reports how many. A one-shot
/// transform is a session executed once.
///
/// The relevant tuning knobs are `t` (planes per tile along the tiled
/// axis), `w` (window), the `F*` polling frequencies (`fp` during pack,
/// `fu` during unpack, `fy`/`fx` during the post-exchange FFT), and
/// `threads`; the slab subtile knobs (`px`, `pz`, `uy`, `uz`) are
/// accepted and ignored. The output is bit-identical whatever the tiling
/// (every tile size runs the same per-line kernels).
pub struct PencilSession {
    /// The transform: subcommunicators, stages, plans and memory
    /// (`crate::executor`).
    core: Session<'static>,
    /// This rank's output extents (see [`PencilOutput`]).
    ny2l: usize,
    nzl: usize,
}

impl PencilSession {
    /// Validates, splits the subcommunicators and pins both stages (plans
    /// are initialised lazily by the first execution). Collective over
    /// `comm`. A zero-extent axis comes back as [`Error::InfeasibleParams`],
    /// a grid that disagrees with the communicator or `spec.p` as
    /// [`Error::GridMismatch`] — never a panic from inside a collective.
    pub fn new(
        comm: &Comm,
        spec: ProblemSpec,
        grid: PencilGrid,
        params: TuningParams,
        dir: Direction,
    ) -> Result<Self, Error> {
        validate_pencil(comm.size(), &spec, grid, &params)?;
        let (row_comm, col_comm) = split_pencil(comm, grid)?;
        let [row, col] = stages(&spec, grid, &params, dir, comm.rank());
        let (ny2l, nzl) = (col.n_w(), col.n_tau);
        let stages = vec![
            (StageComm::Owned(row_comm), row),
            (StageComm::Owned(col_comm), col),
        ];
        let copy_input: Local = Box::new(|input, a, _, _, _| a.copy_from_slice(input));
        Ok(PencilSession {
            core: Session::new(stages, false, copy_input),
            ny2l,
            nzl,
        })
    }

    /// One overlapped transform of `input` — this rank's `(X_r, Y_c, Z_all)`
    /// block in local `x-y-z` layout — with default resilience (no
    /// watchdog) and tracing off. Collective over the session's `comm`.
    pub fn execute(&mut self, input: &[Complex64]) -> Result<PencilRunOutput, Error> {
        self.execute_traced(input, &Resilience::default(), &mut NoopRecorder)
    }

    /// [`Self::execute`] with a stall policy and a trace sink: the full
    /// degradation ladder (boost polls → shrink window → blocking fallback)
    /// guards both exchanges, and every span lands in `recorder` with
    /// stage-2 tiles numbered after stage 1's.
    pub fn execute_traced<R: Recorder>(
        &mut self,
        input: &[Complex64],
        res: &Resilience,
        recorder: &mut R,
    ) -> Result<PencilRunOutput, Error> {
        let ran = self.core.execute(input, res, recorder)?;
        Ok(PencilRunOutput {
            output: PencilOutput {
                data: ran.data,
                ny2l: self.ny2l,
                nzl: self.nzl,
            },
            recovery: ran.recovery,
            exchange_setups: ran.setups,
        })
    }

    /// Executions attempted over this session's lifetime: one per call of
    /// [`Self::execute`] or [`Self::execute_traced`], whether or not it
    /// succeeded ([`crate::FftSession::executions`] counts the same way).
    pub fn executions(&self) -> u64 {
        self.core.executions()
    }

    /// Frees every initialised persistent plan over the subcommunicator
    /// that posted it; returns how many were freed.
    pub fn free(mut self) -> usize {
        self.core.free_plans()
    }
}

/// A starting point for tuning the overlapped pencil backend on
/// `grid`: ~16 tiles along the longer tiled axis, a window of 2, and
/// polling proportional to the larger subgroup.
pub fn pencil_seed(spec: &ProblemSpec, grid: PencilGrid) -> TuningParams {
    let nxl = spec.nx.div_ceil(grid.pr.max(1)).max(1);
    let nzl = spec.nz.div_ceil(grid.pc.max(1)).max(1);
    let t = nxl.max(nzl).div_ceil(16).max(1);
    let f = (grid.pr.max(grid.pc) / 2).max(1) as u32;
    TuningParams {
        t,
        w: 2,
        px: 1,
        pz: 1,
        uy: 1,
        uz: 1,
        fy: f,
        fp: f,
        fu: f,
        fx: f,
        threads: 1,
    }
}

/// The blocking point of the overlapped pencil transform: one tile per
/// stage, no window, no polls (what [`crate::Variant::Fftw`] is for the
/// slab pipeline), so each exchange is one all-to-all + wait within its
/// subcommunicator — the reference a [`PencilSession`] or
/// [`crate::sim_env::Simulation::pencil`] at any other vector is compared
/// against.
pub fn pencil_blocking(spec: &ProblemSpec, grid: PencilGrid) -> TuningParams {
    TuningParams {
        t: spec.nx.max(spec.nz).max(1),
        ..pencil_seed(spec, grid).without_overlap()
    }
}

/// Whether `(params, grid)` is worth evaluating for the overlapped pencil
/// backend — the tuner's feasibility predicate: what `validate_pencil`
/// accepts, minus tiles taller than either tiled axis.
pub fn pencil_feasible(spec: &ProblemSpec, grid: PencilGrid, params: &TuningParams) -> bool {
    validate_pencil(spec.p, spec, grid, params).is_ok() && params.t <= spec.nx.max(spec.nz)
}

// ---------------------------------------------------------------------------
// Test/verification helpers (shared with the conformance table and the tests)
// ---------------------------------------------------------------------------

/// `rank`'s `(X_r, Y_c, Z_all)` pencil of the deterministic
/// [`test_field`] array — the standard input for pencil correctness
/// checks.
pub fn pencil_test_input(spec: &ProblemSpec, grid: PencilGrid, rank: usize) -> Vec<Complex64> {
    let (row, col) = grid.coords(rank);
    let xs = AxisSplit::new(spec.nx, grid.pr).range(row);
    let ys = AxisSplit::new(spec.ny, grid.pc).range(col);
    block(xs, ys, spec.nz, test_field)
}

/// Max |difference| between `rank`'s pencil `out` and the full serial
/// `reference` spectrum (in `x-y-z` layout). Exactly 0.0 when the pencil
/// path is bit-identical to serial.
pub fn compare_pencil_with_serial(
    spec: &ProblemSpec,
    grid: PencilGrid,
    rank: usize,
    out: &PencilOutput,
    reference: &[Complex64],
) -> f64 {
    let (row, col) = grid.coords(rank);
    let y2s = AxisSplit::new(spec.ny, grid.pr);
    let zsp = AxisSplit::new(spec.nz, grid.pc);
    let mut err = 0.0f64;
    for yl in 0..out.ny2l {
        for zl in 0..out.nzl {
            for x in 0..spec.nx {
                let got = out.data[(yl * out.nzl + zl) * spec.nx + x];
                let want = reference
                    [(x * spec.ny + y2s.offset(row) + yl) * spec.nz + zsp.offset(col) + zl];
                err = err.max((got - want).abs());
            }
        }
    }
    err
}

#[cfg(test)]
impl PencilSession {
    /// The session's plan tables and staging, for the crate's pooling tests.
    pub(crate) fn transport_state(
        &self,
    ) -> (
        Vec<&crate::transport::TilePlans>,
        &crate::transport::Staging,
    ) {
        self.core.transport_state()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::{fft3_serial, full_test_array};
    use crate::trace::{EventKind, MemRecorder};
    use std::sync::Arc;

    fn serial_reference(spec: ProblemSpec, dir: Direction) -> Arc<Vec<Complex64>> {
        let mut reference = full_test_array(spec.nx, spec.ny, spec.nz);
        fft3_serial(&mut reference, spec.nx, spec.ny, spec.nz, dir);
        Arc::new(reference)
    }

    /// A forward session executed once.
    fn one_shot(
        comm: &Comm,
        spec: ProblemSpec,
        grid: PencilGrid,
        params: TuningParams,
        input: &[Complex64],
    ) -> Result<PencilRunOutput, Error> {
        PencilSession::new(comm, spec, grid, params, Direction::Forward)?.execute(input)
    }

    fn check(spec: ProblemSpec, grid: PencilGrid) {
        let reference = serial_reference(spec, Direction::Forward);
        let errs = mpisim::run(spec.p, move |comm| {
            let input = pencil_test_input(&spec, grid, comm.rank());
            let out = one_shot(&comm, spec, grid, pencil_blocking(&spec, grid), &input)
                .expect("blocking pencil transform");
            compare_pencil_with_serial(&spec, grid, comm.rank(), &out.output, &reference)
        });
        for (r, e) in errs.iter().enumerate() {
            assert!(
                *e < 1e-9 * spec.len() as f64,
                "rank {r}: err {e} ({spec:?}, {grid:?})"
            );
        }
    }

    fn check_overlapped(spec: ProblemSpec, grid: PencilGrid, params: TuningParams) {
        let reference = serial_reference(spec, Direction::Forward);
        let errs = mpisim::run(spec.p, move |comm| {
            let input = pencil_test_input(&spec, grid, comm.rank());
            let out =
                one_shot(&comm, spec, grid, params, &input).expect("overlapped pencil transform");
            assert!(out.recovery.clean());
            compare_pencil_with_serial(&spec, grid, comm.rank(), &out.output, &reference)
        });
        for (r, e) in errs.iter().enumerate() {
            // Every tiling runs the same per-line kernels, so this matches
            // serial to the blocking tolerance (and in practice bit-exactly;
            // the end-to-end suite pins that).
            assert!(
                *e < 1e-9 * spec.len() as f64,
                "rank {r}: err {e} ({spec:?}, {grid:?})"
            );
        }
    }

    #[test]
    fn pencil_matches_serial_2x2() {
        check(ProblemSpec::cube(8, 4), PencilGrid { pr: 2, pc: 2 });
    }

    #[test]
    fn pencil_matches_serial_2x3() {
        check(
            ProblemSpec {
                nx: 8,
                ny: 12,
                nz: 6,
                p: 6,
            },
            PencilGrid { pr: 2, pc: 3 },
        );
    }

    #[test]
    fn pencil_matches_serial_non_divisible() {
        check(
            ProblemSpec {
                nx: 7,
                ny: 9,
                nz: 10,
                p: 6,
            },
            PencilGrid { pr: 3, pc: 2 },
        );
    }

    #[test]
    fn pencil_degenerate_1xp_equals_slab_distribution() {
        // pr = 1 reduces to a slab-like decomposition on z/y only.
        check(ProblemSpec::cube(8, 4), PencilGrid { pr: 1, pc: 4 });
        check(ProblemSpec::cube(8, 4), PencilGrid { pr: 4, pc: 1 });
    }

    #[test]
    fn overlapped_pencil_matches_serial() {
        let params = TuningParams {
            t: 2,
            w: 2,
            ..pencil_seed(&ProblemSpec::cube(8, 4), PencilGrid { pr: 2, pc: 2 })
        };
        check_overlapped(ProblemSpec::cube(8, 4), PencilGrid { pr: 2, pc: 2 }, params);
    }

    #[test]
    fn overlapped_pencil_matches_serial_non_divisible() {
        let spec = ProblemSpec {
            nx: 7,
            ny: 9,
            nz: 10,
            p: 6,
        };
        let grid = PencilGrid { pr: 3, pc: 2 };
        let params = TuningParams {
            t: 2,
            w: 2,
            ..pencil_seed(&spec, grid)
        };
        check_overlapped(spec, grid, params);
    }

    #[test]
    fn overlapped_pencil_matches_serial_with_zero_window() {
        // w = 0 is the NEW-0 degenerate schedule: post then wait per tile.
        let spec = ProblemSpec::cube(8, 4);
        let grid = PencilGrid { pr: 2, pc: 2 };
        let params = TuningParams {
            t: 1,
            w: 0,
            ..pencil_seed(&spec, grid)
        };
        check_overlapped(spec, grid, params);
    }

    #[test]
    fn overlapped_pencil_is_bit_exact_vs_blocking_pencil() {
        // Same kernels, same per-line order ⇒ identical bit patterns.
        let spec = ProblemSpec {
            nx: 8,
            ny: 12,
            nz: 6,
            p: 6,
        };
        let grid = PencilGrid { pr: 2, pc: 3 };
        let params = TuningParams {
            t: 2,
            w: 2,
            ..pencil_seed(&spec, grid)
        };
        let ok = mpisim::run(spec.p, move |comm| {
            let input = pencil_test_input(&spec, grid, comm.rank());
            let blocking = one_shot(&comm, spec, grid, pencil_blocking(&spec, grid), &input)
                .expect("blocking pencil transform")
                .output;
            let overlapped = one_shot(&comm, spec, grid, params, &input)
                .expect("overlapped pencil transform")
                .output;
            let same_bits = blocking
                .data
                .iter()
                .zip(overlapped.data.iter())
                .all(|(a, b)| (a.re.to_bits(), a.im.to_bits()) == (b.re.to_bits(), b.im.to_bits()));
            same_bits && blocking.ny2l == overlapped.ny2l && blocking.nzl == overlapped.nzl
        });
        assert!(
            ok.into_iter().all(|b| b),
            "overlapped diverged from blocking"
        );
    }

    #[test]
    fn grid_mismatch_is_a_typed_error_not_a_panic() {
        // Regression: the try_ contract used to assert on a mis-sized grid.
        let spec = ProblemSpec::cube(8, 4);
        let bad = PencilGrid { pr: 2, pc: 3 }; // 6 ≠ 4 ranks
        let errs = mpisim::run(4, move |comm| {
            let input = vec![Complex64::ZERO; 8 * 8 * 8];
            let blocking = one_shot(&comm, spec, bad, pencil_blocking(&spec, bad), &input).err();
            let overlapped = one_shot(&comm, spec, bad, pencil_seed(&spec, bad), &input).err();
            (blocking, overlapped)
        });
        for (blocking, overlapped) in errs {
            let want = Error::GridMismatch {
                pr: 2,
                pc: 3,
                expected: 4,
            };
            assert_eq!(blocking, Some(want));
            assert_eq!(overlapped, Some(want));
        }
    }

    #[test]
    fn near_square_rejects_zero_ranks() {
        // Regression: near_square(0) silently built the 1×0 empty grid,
        // whose coords() divides by zero.
        assert_eq!(
            PencilGrid::try_near_square(0),
            Err(Error::InfeasibleParams(ParamError::ZeroRanks))
        );
        let empty = PencilGrid { pr: 1, pc: 0 };
        assert_eq!(
            empty.validate(0),
            Err(Error::GridMismatch {
                pr: 1,
                pc: 0,
                expected: 0
            })
        );
    }

    #[test]
    fn near_square_grids() {
        assert_eq!(PencilGrid::near_square(16), PencilGrid { pr: 4, pc: 4 });
        assert_eq!(PencilGrid::near_square(12), PencilGrid { pr: 3, pc: 4 });
        assert_eq!(PencilGrid::near_square(7), PencilGrid { pr: 1, pc: 7 });
    }

    #[test]
    fn divisor_pairs_cover_exactly_the_divisors() {
        assert_eq!(
            PencilGrid::divisor_pairs(12),
            vec![
                PencilGrid { pr: 1, pc: 12 },
                PencilGrid { pr: 2, pc: 6 },
                PencilGrid { pr: 3, pc: 4 },
                PencilGrid { pr: 4, pc: 3 },
                PencilGrid { pr: 6, pc: 2 },
                PencilGrid { pr: 12, pc: 1 },
            ]
        );
        assert!(PencilGrid::divisor_pairs(0).is_empty());
        for g in PencilGrid::divisor_pairs(360) {
            assert_eq!(g.len(), 360);
        }
    }

    #[test]
    fn session_reuses_persistent_plans_across_executions() {
        let spec = ProblemSpec {
            nx: 8,
            ny: 12,
            nz: 6,
            p: 6,
        };
        let grid = PencilGrid { pr: 2, pc: 3 };
        let params = TuningParams {
            t: 2,
            w: 2,
            ..pencil_seed(&spec, grid)
        };
        let reference = serial_reference(spec, Direction::Forward);
        let errs = mpisim::run(spec.p, move |comm| {
            let mut session = PencilSession::new(&comm, spec, grid, params, Direction::Forward)
                .expect("session setup");
            let input = pencil_test_input(&spec, grid, comm.rank());
            let (row, col) = grid.coords(comm.rank());
            let nxl = AxisSplit::new(spec.nx, grid.pr).count(row);
            let nzl = AxisSplit::new(spec.nz, grid.pc).count(col);
            let k1 = nxl.div_ceil(params.t.clamp(1, nxl.max(1)));
            let k2 = nzl.div_ceil(params.t.clamp(1, nzl.max(1)));
            let mut max_err = 0.0f64;
            for rep in 0..3 {
                let out = session.execute(&input).expect("session execution");
                // First execution initialises every tile's plan; later ones
                // only start them.
                let expect_setups = if rep == 0 { (k1 + k2) as u64 } else { 0 };
                assert_eq!(out.exchange_setups, expect_setups, "rep {rep}");
                max_err = max_err.max(compare_pencil_with_serial(
                    &spec,
                    grid,
                    comm.rank(),
                    &out.output,
                    &reference,
                ));
            }
            assert_eq!(session.executions(), 3);
            let freed = session.free();
            assert_eq!(freed, k1 + k2);
            max_err
        });
        for (r, e) in errs.iter().enumerate() {
            assert!(*e < 1e-9 * spec.len() as f64, "rank {r}: err {e}");
        }
    }

    #[test]
    fn traced_overlapped_run_records_both_stages() {
        let spec = ProblemSpec::cube(8, 4);
        let grid = PencilGrid { pr: 2, pc: 2 };
        let params = TuningParams {
            t: 2,
            w: 2,
            ..pencil_seed(&spec, grid)
        };
        let streams = mpisim::run(spec.p, move |comm| {
            let input = pencil_test_input(&spec, grid, comm.rank());
            let mut rec = MemRecorder::default();
            PencilSession::new(&comm, spec, grid, params, Direction::Forward)
                .expect("session setup")
                .execute_traced(&input, &Resilience::default(), &mut rec)
                .expect("traced overlapped pencil transform");
            rec.take()
        });
        for events in streams {
            let has = |pred: &dyn Fn(&EventKind) -> bool| events.iter().any(|e| pred(&e.kind));
            assert!(has(&|k| matches!(k, EventKind::Fftz)));
            assert!(has(&|k| matches!(k, EventKind::Pack { .. })));
            assert!(has(&|k| matches!(k, EventKind::PostA2a { .. })));
            assert!(has(&|k| matches!(k, EventKind::Wait { .. })));
            assert!(has(&|k| matches!(k, EventKind::Unpack { .. })));
            assert!(has(&|k| matches!(k, EventKind::Ffty { .. })));
            assert!(has(&|k| matches!(k, EventKind::Fftx { .. })));
            // Stage-2 tiles are numbered after stage 1's: with nxl = 4 and
            // t = 2, stage 1 owns tiles 0..2 and stage 2 starts at 2.
            assert!(has(
                &|k| matches!(k, EventKind::Fftx { tile, .. } if *tile >= 2)
            ));
        }
    }

    #[test]
    fn pencil_seed_is_feasible_for_every_grid_shape() {
        for p in [1, 2, 4, 6, 12, 16, 256] {
            let spec = ProblemSpec::cube(64, p);
            for grid in PencilGrid::divisor_pairs(p) {
                let params = pencil_seed(&spec, grid);
                assert!(
                    pencil_feasible(&spec, grid, &params),
                    "seed infeasible for p={p} {grid:?}"
                );
            }
        }
    }
}
