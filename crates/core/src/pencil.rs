//! 2-D (pencil) domain decomposition — the paper's §7 future work, realised.
//!
//! §2.2 explains the trade-off: pencils scale to `N²` processes but need
//! *two* all-to-all exchanges with more complex patterns, so slabs can win
//! at moderate scale. This module is one executor with these entry points:
//!
//! * [`try_fft3_pencil_overlapped`] / [`try_fft3_pencil_overlapped_traced`]
//!   — the paper's tile-window overlap applied to **both** pencil
//!   exchanges, driven by the same resilient pipeline
//!   ([`crate::pipeline::try_run_new`]) over the same tile-exchange
//!   transport (`crate::transport`) as the slab backend, with the
//!   degradation ladder and tracing;
//! * [`PencilSession`] — the same transform with persistent per-tile plans
//!   and session-owned staging (setup once, execute many);
//! * [`try_fft3_pencil`] — the blocking reference transform: the one tile
//!   per stage, `W = 0`, no-poll point of the overlapped executor (one
//!   all-to-all per exchange within the row/column subcommunicators).
//!
//! Their cost models on `simnet` ([`crate::sim_env::pencil_simulated`],
//! [`crate::sim_env::pencil_overlap_simulated_params`]) price the same two
//! stages from `crate::stage::pencil`; the `decomp_crossover` bench and
//! [`crate::decomp::auto_select`] use them to locate the slab-vs-pencil
//! crossover.
//!
//! The process grid is `pr × pc` (`p = pr · pc`). Distributions:
//!
//! ```text
//! stage 0: (X_r, Y_c, Z_all)  x-y-z layout   → FFTz
//! row exchange (size pc):     z ↔ y
//! stage 1: (X_r, Y_all, Z_c)  x-z-y layout   → FFTy
//! column exchange (size pr):  y ↔ x
//! stage 2: (X_all, Y2_r, Z_c) y-z-x layout   → FFTx
//! ```
//!
//! The overlapped path tiles stage 1 along local x (FFTz + Pack on one
//! x-slice overlap the previous slices' row exchanges; Unpack + FFTy
//! overlap the next ones) and stage 2 along local z the same way, ending
//! in FFTx. Every member of a row subcommunicator shares `nxl` (and every
//! column member shares `nzl`), so the tile partitions — and therefore the
//! collective call sequences — agree across each subgroup by construction.

use crate::decomp::AxisSplit;
use crate::error::Error;
use crate::params::{ParamError, ProblemSpec, TuningParams};
use crate::pipeline::{try_run_new, OverlapEnv, Recovery, Resilience};
use crate::serial::test_field;
use crate::trace::{DegradeAction, EventKind, NoopRecorder, Recorder};
use crate::transport::{Req, Staging, TilePlans, Transport};
use crate::xplan::{TileExchange, TransformPlanCache};
use cfft::batch::{execute_batch, execute_rows, BatchLayout, BatchScratch};
use cfft::planner::{Plan1d, Rigor};
use cfft::{Complex64, Direction, PlanCache};
use mpisim::Comm;
use std::sync::Arc;
use std::time::Instant;

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

/// Per-rank pencil decomposition geometry.
#[derive(Debug, Clone)]
struct PencilDims {
    /// X split across rows (input distribution).
    xs: AxisSplit,
    /// Y split across columns (input distribution).
    ys: AxisSplit,
    /// Z split across columns (after the row exchange).
    zs: AxisSplit,
    /// Y split across rows (after the column exchange).
    y2s: AxisSplit,
    row: usize,
    col: usize,
    nxl: usize,
    nyc: usize,
    nzl: usize,
    ny2l: usize,
}

impl PencilDims {
    fn new(spec: &ProblemSpec, grid: PencilGrid, rank: usize) -> Self {
        let (row, col) = grid.coords(rank);
        let xs = AxisSplit::new(spec.nx, grid.pr); // X_r
        let ys = AxisSplit::new(spec.ny, grid.pc); // Y_c
        let zs = AxisSplit::new(spec.nz, grid.pc); // Z_c
        let y2s = AxisSplit::new(spec.ny, grid.pr); // Y2_r
        let (nxl, nyc) = (xs.count(row), ys.count(col));
        let nzl = zs.count(col);
        let ny2l = y2s.count(row);
        PencilDims {
            xs,
            ys,
            zs,
            y2s,
            row,
            col,
            nxl,
            nyc,
            nzl,
            ny2l,
        }
    }
}

/// Row communicator (same row, ranked by column) and column communicator
/// (same column, ranked by row). Collective over `comm`; the grid must
/// already be validated against `comm.size()`.
fn split_pencil(comm: &Comm, grid: PencilGrid) -> (Comm, Comm) {
    let (row, col) = grid.coords(comm.rank());
    let row_comm = comm
        .split(row as i64, col as i64)
        .expect("non-negative color");
    let col_comm = comm
        .split((grid.pr + col) as i64, row as i64)
        .expect("non-negative color");
    (row_comm, col_comm)
}

/// Distributed 3-D FFT with 2-D (pencil) decomposition, blocking exchanges:
/// the overlapped executor at one tile per stage, no window and no polls
/// (what [`crate::Variant::Fftw`] is for the slab pipeline), so each
/// exchange is one `ialltoallv` + wait within its subcommunicator.
///
/// `input` is this rank's `(X_r, Y_c, Z_all)` block in local `x-y-z`
/// layout. Collective over `comm`; `grid.len()` must equal `comm.size()`.
/// A zero-extent axis comes back as [`Error::InfeasibleParams`], a grid
/// that disagrees with the communicator or `spec.p` as
/// [`Error::GridMismatch`] — never a panic from inside a collective.
pub fn try_fft3_pencil(
    comm: &Comm,
    spec: ProblemSpec,
    grid: PencilGrid,
    dir: Direction,
    input: &[Complex64],
) -> Result<PencilOutput, Error> {
    let blocking = TuningParams {
        t: spec.nx.max(spec.nz).max(1),
        ..pencil_seed(&spec, grid).without_overlap()
    };
    try_fft3_pencil_overlapped(comm, spec, grid, blocking, dir, input).map(|run| run.output)
}

// ---------------------------------------------------------------------------
// The executor
// ---------------------------------------------------------------------------

/// Which exchange a [`StageEnv`] drives.
#[derive(Clone, Copy, PartialEq, Eq)]
enum StageKind {
    /// Stage 1: z ↔ y within the row subcommunicator, tiled along local x.
    /// "Pre" compute is FFTz + Pack; "post" compute is Unpack + FFTy.
    Row,
    /// Stage 2: y ↔ x within the column subcommunicator, tiled along local
    /// z. "Pre" compute is Pack; "post" compute is Unpack + FFTx.
    Col,
}

/// One pencil exchange as an [`OverlapEnv`], so
/// [`crate::pipeline::try_run_new`] drives it with the same windowed
/// schedule — and the same degradation ladder — as the slab backend. Two
/// instances run per transform (Row then Col), each over a [`Transport`] on
/// its subcommunicator; the second's numbers its tiles after the first's so
/// errors, traces, and recovery actions name globally unique tiles.
struct StageEnv<'a> {
    comm: &'a Comm,
    kind: StageKind,
    spec: ProblemSpec,
    dims: &'a PencilDims,
    tiles: &'a [Arc<TileExchange>],
    /// Planes per tile along the tiled axis (x for Row, z for Col).
    tsize: usize,
    /// Extent of the tiled axis (`nxl` for Row, `nzl` for Col).
    extent: usize,
    w: usize,
    /// Polls during the pre-exchange compute of each tile.
    f_pre: u32,
    /// Polls during the post-exchange compute of each tile.
    f_post: u32,
    /// Multiplier the ladder's first rung applies to both poll counts.
    poll_boost: u32,
    src: &'a mut Vec<Complex64>,
    dst: &'a mut Vec<Complex64>,
    /// FFT applied before packing (FFTz for Row; none for Col, whose input
    /// was already transformed by the Row stage's post-compute).
    plan_pre: Option<Arc<Plan1d>>,
    /// FFT applied after unpacking (FFTy for Row, FFTx for Col).
    plan_post: Arc<Plan1d>,
    scratch: &'a mut BatchScratch,
    /// Posts, polls, waits and pools the stage's tiles over `comm`.
    net: Transport<'a>,
    threads_n: usize,
}

impl StageEnv<'_> {
    /// `(start, count)` of `tile`'s plane range along the tiled axis.
    fn tile_range(&self, tile: usize) -> (usize, usize) {
        let start = tile * self.tsize;
        (start, self.tsize.min(self.extent - start))
    }
}

impl OverlapEnv for StageEnv<'_> {
    type Req = Req;

    fn num_tiles(&self) -> usize {
        self.tiles.len()
    }

    fn window(&self) -> usize {
        self.w
    }

    fn fftz_transpose(&mut self) {
        // The pencil stages have no upfront whole-slab compute: the Row
        // stage's FFTz runs per tile inside `ffty_pack` — that is what the
        // first exchange overlaps with.
    }

    fn ffty_pack(&mut self, tile: usize, inflight: &mut [(usize, Self::Req)]) -> Result<(), Error> {
        let gt = self.net.tile_id(tile);
        let (start, cnt) = self.tile_range(tile);
        let peers = self.tiles[tile].send_counts.len();
        let total_send = self.tiles[tile].total_send;
        match self.kind {
            StageKind::Row => {
                let (nz, nyc) = (self.spec.nz, self.dims.nyc);
                if cnt > 0 && nyc > 0 {
                    let plan = self.plan_pre.as_deref().expect("row stage has a z-plan");
                    let t0 = Instant::now();
                    // The tile's z lines lie end to end.
                    let lines = BatchLayout::contiguous(nz, cnt * nyc);
                    execute_batch(plan, &mut self.src[start * nyc * nz..], lines, self.scratch);
                    let t1 = Instant::now();
                    self.net.span(t0, t1, EventKind::Fftz);
                }
                let t0 = Instant::now();
                let send = self.net.staged(total_send);
                let mut off = 0;
                for j in 0..peers {
                    let (z0, zc) = (self.dims.zs.offset(j), self.dims.zs.count(j));
                    for x in start..start + cnt {
                        for y in 0..nyc {
                            let s = (x * nyc + y) * nz + z0;
                            send[off..off + zc].copy_from_slice(&self.src[s..s + zc]);
                            off += zc;
                        }
                    }
                }
                let t1 = Instant::now();
                self.net.span(
                    t0,
                    t1,
                    EventKind::Pack {
                        tile: gt,
                        subtile: 0,
                    },
                );
            }
            StageKind::Col => {
                let (ny, nxl, nzl) = (self.spec.ny, self.dims.nxl, self.dims.nzl);
                let t0 = Instant::now();
                let send = self.net.staged(total_send);
                let mut off = 0;
                for j in 0..peers {
                    let (y0, yc) = (self.dims.y2s.offset(j), self.dims.y2s.count(j));
                    for x in 0..nxl {
                        for zl in start..start + cnt {
                            let s = (x * nzl + zl) * ny + y0;
                            send[off..off + yc].copy_from_slice(&self.src[s..s + yc]);
                            off += yc;
                        }
                    }
                }
                let t1 = Instant::now();
                self.net.span(
                    t0,
                    t1,
                    EventKind::Pack {
                        tile: gt,
                        subtile: 0,
                    },
                );
            }
        }
        self.net.poll(inflight, self.f_pre.into())
    }

    fn post_a2a(&mut self, tile: usize) -> Self::Req {
        self.net.post(tile, &self.tiles[tile])
    }

    fn wait(&mut self, tile: usize, req: Self::Req) -> Result<(), (Self::Req, Error)> {
        self.net.wait(tile, req)
    }

    fn unpack_fftx(
        &mut self,
        tile: usize,
        inflight: &mut [(usize, Self::Req)],
    ) -> Result<(), Error> {
        let gt = self.net.tile_id(tile);
        let (start, cnt) = self.tile_range(tile);
        let recv = self.net.take_recv()?;
        match self.kind {
            StageKind::Row => {
                let (ny, nzl) = (self.spec.ny, self.dims.nzl);
                let t0 = Instant::now();
                let mut off = 0;
                for i in 0..self.tiles[tile].recv_counts.len() {
                    let (y0, yc) = (self.dims.ys.offset(i), self.dims.ys.count(i));
                    for x in start..start + cnt {
                        for yl in 0..yc {
                            for zl in 0..nzl {
                                self.dst[(x * nzl + zl) * ny + y0 + yl] = recv[off];
                                off += 1;
                            }
                        }
                    }
                }
                let t1 = Instant::now();
                self.net.span(
                    t0,
                    t1,
                    EventKind::Unpack {
                        tile: gt,
                        subtile: 0,
                    },
                );
                if cnt > 0 && nzl > 0 {
                    let t0 = Instant::now();
                    // As do its y lines.
                    let lines = BatchLayout::contiguous(ny, cnt * nzl);
                    let tile = &mut self.dst[start * nzl * ny..];
                    execute_batch(&self.plan_post, tile, lines, self.scratch);
                    let t1 = Instant::now();
                    self.net.span(
                        t0,
                        t1,
                        EventKind::Ffty {
                            tile: gt,
                            subtile: 0,
                        },
                    );
                }
            }
            StageKind::Col => {
                let (nx, nzl, ny2l) = (self.spec.nx, self.dims.nzl, self.dims.ny2l);
                let t0 = Instant::now();
                let mut off = 0;
                for i in 0..self.tiles[tile].recv_counts.len() {
                    let (x0, xc) = (self.dims.xs.offset(i), self.dims.xs.count(i));
                    for xl in 0..xc {
                        for zl in start..start + cnt {
                            for yl in 0..ny2l {
                                self.dst[(yl * nzl + zl) * nx + x0 + xl] = recv[off];
                                off += 1;
                            }
                        }
                    }
                }
                let t1 = Instant::now();
                self.net.span(
                    t0,
                    t1,
                    EventKind::Unpack {
                        tile: gt,
                        subtile: 0,
                    },
                );
                if cnt > 0 && ny2l > 0 {
                    let t0 = Instant::now();
                    // The tile's x lines come in runs of `cnt`, one per `yl`
                    // — shorter than a block, so they go as one row list.
                    let rows: Vec<usize> = (0..ny2l)
                        .flat_map(|yl| (start..start + cnt).map(move |zl| (yl * nzl + zl) * nx))
                        .collect();
                    execute_rows(&self.plan_post, self.dst, &rows, self.scratch);
                    let t1 = Instant::now();
                    self.net.span(
                        t0,
                        t1,
                        EventKind::Fftx {
                            tile: gt,
                            subtile: 0,
                        },
                    );
                }
            }
        }
        self.net.recycle(recv);
        self.net.poll(inflight, self.f_post.into())
    }

    fn boost_polls(&mut self) {
        // Called at most once per stage run.
        self.f_pre = self.f_pre.saturating_mul(self.poll_boost.max(1));
        self.f_post = self.f_post.saturating_mul(self.poll_boost.max(1));
    }

    fn escalate_watchdog(&mut self) {
        self.net.escalate();
    }

    fn on_degrade(&mut self, tile: usize, action: DegradeAction) {
        let tile = self.net.tile_id(tile);
        self.net.mark(EventKind::Degrade { tile, action });
    }

    fn cancel(&mut self, _tile: usize, req: Self::Req) {
        self.net.cancel(req);
    }

    fn sched_point(&mut self) {
        self.comm.progress_hint();
    }

    fn threads(&self) -> usize {
        self.threads_n
    }
}

/// Result of one overlapped pencil transform.
pub struct PencilRunOutput {
    /// The spectrum pencil.
    pub output: PencilOutput,
    /// What the resilient driver had to do across both stages (tile
    /// numbers in [`Recovery::actions`] count stage-2 tiles after
    /// stage 1's).
    pub recovery: Recovery,
    /// Exchange setups performed: one per ad-hoc all-to-all post, one per
    /// persistent-plan init. A [`PencilSession`]'s second execution
    /// reports 0.
    pub exchange_setups: u64,
}

fn validate_pencil(
    comm_size: usize,
    spec: &ProblemSpec,
    grid: PencilGrid,
    params: &TuningParams,
) -> Result<(), Error> {
    grid.validate(comm_size)?;
    grid.validate(spec.p)?;
    for (axis, n) in [("nx", spec.nx), ("ny", spec.ny), ("nz", spec.nz)] {
        if n == 0 {
            return Err(Error::from(ParamError::ZeroExtent(axis)));
        }
    }
    if params.t < 1 {
        return Err(ParamError::TileSize(params.t).into());
    }
    if params.threads < 1 {
        return Err(ParamError::Threads(params.threads).into());
    }
    Ok(())
}

fn merge_recovery(mut a: Recovery, b: Recovery) -> Recovery {
    a.stalls_detected += b.stalls_detected;
    a.actions.extend(b.actions);
    a.fell_back |= b.fell_back;
    a.corruptions_healed += b.corruptions_healed;
    a
}

/// What a pencil transform pins: the validated problem, this rank's
/// geometry and the row/column subcommunicators. A one-shot call builds one
/// per call; a [`PencilSession`] keeps it.
struct Pinned {
    spec: ProblemSpec,
    grid: PencilGrid,
    params: TuningParams,
    dir: Direction,
    dims: PencilDims,
    row_comm: Comm,
    col_comm: Comm,
}

impl Pinned {
    /// Validates and splits the subcommunicators. Collective over `comm`.
    fn new(
        comm: &Comm,
        spec: ProblemSpec,
        grid: PencilGrid,
        params: TuningParams,
        dir: Direction,
    ) -> Result<Self, Error> {
        validate_pencil(comm.size(), &spec, grid, &params)?;
        let dims = PencilDims::new(&spec, grid, comm.rank());
        let (row_comm, col_comm) = split_pencil(comm, grid);
        Ok(Pinned {
            spec,
            grid,
            params,
            dir,
            dims,
            row_comm,
            col_comm,
        })
    }

    /// The transform proper, shared by the one-shot entry points (`plans =
    /// None`: ad-hoc `ialltoallv` per tile, staging for this call) and
    /// [`PencilSession`] (its `[row, column]` persistent plans, initialised
    /// lazily on first use, and its staging).
    fn run(
        &self,
        input: &[Complex64],
        res: &Resilience,
        recorder: &mut dyn Recorder,
        plans: Option<&mut [TilePlans; 2]>,
        staging: &mut Staging,
    ) -> Result<PencilRunOutput, Error> {
        let Pinned {
            spec,
            grid,
            params,
            dir,
            dims,
            row_comm,
            col_comm,
        } = self;
        assert_eq!(
            input.len(),
            dims.nxl * dims.nyc * spec.nz,
            "input must be the rank's pencil"
        );
        let rank = dims.row * grid.pc + dims.col;
        let geom = TransformPlanCache::global()
            .pencil_geometry(spec, grid.pr, grid.pc, rank, params.t)
            .0;
        // One staging serves both stages: sized for the larger stage's largest
        // tile, `W + 1` receive blocks between post and unpack.
        let tiles = || geom.row.iter().chain(&geom.col);
        staging.prepare(
            tiles().map(|t| t.total_send).max().unwrap_or(0),
            params.w + 1,
            tiles().map(|t| t.total_recv).max().unwrap_or(0),
        );
        let (row_plans, col_plans) = match plans {
            Some([row, col]) => (Some(row), Some(col)),
            None => (None, None),
        };

        let cache = PlanCache::global();
        let plan_z = cache.plan(spec.nz, *dir, Rigor::Estimate);
        let plan_y = cache.plan(spec.ny, *dir, Rigor::Estimate);
        let plan_x = cache.plan(spec.nx, *dir, Rigor::Estimate);
        let mut scratch = BatchScratch::default();

        let mut a = input.to_vec();
        let mut b = vec![Complex64::ZERO; dims.nxl * dims.nzl * spec.ny];
        let mut c = vec![Complex64::ZERO; dims.ny2l * dims.nzl * spec.nx];
        let epoch = Instant::now();
        let timeout = res.stall_timeout;

        // ---- Stage 1: FFTz/Pack ∥ row exchange ∥ Unpack/FFTy ------------------
        let k1 = geom.row.len();
        let mut env = StageEnv {
            comm: row_comm,
            kind: StageKind::Row,
            spec: *spec,
            dims,
            tiles: &geom.row,
            tsize: params.t.clamp(1, dims.nxl.max(1)),
            extent: dims.nxl,
            w: params.w,
            f_pre: params.fp,
            f_post: params.fu + params.fy,
            poll_boost: res.poll_boost,
            src: &mut a,
            dst: &mut b,
            plan_pre: Some(plan_z),
            plan_post: plan_y,
            scratch: &mut scratch,
            net: Transport::new(row_comm, row_plans, staging, timeout, 0, epoch, recorder),
            threads_n: params.threads,
        };
        let rec1 = try_run_new(&mut env, res)?;
        let setups = env.net.setups;

        // ---- Stage 2: Pack ∥ column exchange ∥ Unpack/FFTx --------------------
        let mut env = StageEnv {
            comm: col_comm,
            kind: StageKind::Col,
            spec: *spec,
            dims,
            tiles: &geom.col,
            tsize: params.t.clamp(1, dims.nzl.max(1)),
            extent: dims.nzl,
            w: params.w,
            f_pre: params.fp,
            f_post: params.fu + params.fx,
            poll_boost: res.poll_boost,
            src: &mut b,
            dst: &mut c,
            plan_pre: None,
            plan_post: plan_x,
            scratch: &mut scratch,
            net: Transport::new(col_comm, col_plans, staging, timeout, k1, epoch, recorder),
            threads_n: params.threads,
        };
        let rec2 = try_run_new(&mut env, res)?;
        let setups = setups + env.net.setups;

        Ok(PencilRunOutput {
            output: PencilOutput {
                data: c,
                ny2l: dims.ny2l,
                nzl: dims.nzl,
            },
            recovery: merge_recovery(rec1, rec2),
            exchange_setups: setups,
        })
    }
}

/// Distributed 3-D FFT with 2-D (pencil) decomposition and the paper's
/// tile-window overlap on **both** exchanges, with default resilience (no
/// watchdog) and tracing off.
///
/// `input` is this rank's `(X_r, Y_c, Z_all)` block in local `x-y-z`
/// layout; the output is bit-identical whatever the tiling (every tile
/// size runs the same per-line kernels). Collective over `comm`.
///
/// The relevant tuning knobs are `t` (planes per tile along the tiled
/// axis), `w` (window), the `F*` polling frequencies (`fp` during pack,
/// `fu` during unpack, `fy`/`fx` during the post-exchange FFT), and
/// `threads`; the slab subtile knobs (`px`, `pz`, `uy`, `uz`) are
/// accepted and ignored.
pub fn try_fft3_pencil_overlapped(
    comm: &Comm,
    spec: ProblemSpec,
    grid: PencilGrid,
    params: TuningParams,
    dir: Direction,
    input: &[Complex64],
) -> Result<PencilRunOutput, Error> {
    try_fft3_pencil_overlapped_traced(
        comm,
        spec,
        grid,
        params,
        dir,
        input,
        &Resilience::default(),
        &mut NoopRecorder,
    )
}

/// [`try_fft3_pencil_overlapped`] with a stall policy and a trace sink:
/// the full degradation ladder (boost polls → shrink window → blocking
/// fallback) guards both exchanges, and every span lands in `recorder`
/// with stage-2 tiles numbered after stage 1's.
#[allow(clippy::too_many_arguments)]
pub fn try_fft3_pencil_overlapped_traced<R: Recorder>(
    comm: &Comm,
    spec: ProblemSpec,
    grid: PencilGrid,
    params: TuningParams,
    dir: Direction,
    input: &[Complex64],
    res: &Resilience,
    recorder: &mut R,
) -> Result<PencilRunOutput, Error> {
    let pinned = Pinned::new(comm, spec, grid, params, dir)?;
    pinned.run(input, res, recorder, None, &mut Staging::default())
}

/// A setup-once, execute-many overlapped pencil transform: the row/column
/// subcommunicators are split once, every tile's exchange runs as a
/// persistent plan (`alltoallv_init` on first use, `start`/`wait`
/// afterwards) and the network staging (pack buffer, `W + 1` pooled receive
/// blocks) is kept, so repeated transforms of one geometry pay zero
/// exchange setups and allocate no staging after the first execution.
/// Dropping the session frees every plan (so no MC006 lint fires);
/// [`PencilSession::free`] does the same and reports how many.
pub struct PencilSession {
    pinned: Pinned,
    /// `[row, column]` stage plans.
    plans: [TilePlans; 2],
    staging: Staging,
    executions: u64,
}

impl PencilSession {
    /// Validates and splits the subcommunicators (plans are initialised
    /// lazily by the first execution). Collective over `comm`.
    pub fn new(
        comm: &Comm,
        spec: ProblemSpec,
        grid: PencilGrid,
        params: TuningParams,
        dir: Direction,
    ) -> Result<Self, Error> {
        Ok(PencilSession {
            pinned: Pinned::new(comm, spec, grid, params, dir)?,
            plans: Default::default(),
            staging: Staging::default(),
            executions: 0,
        })
    }

    /// One overlapped transform with default resilience and tracing off.
    pub fn execute(&mut self, input: &[Complex64]) -> Result<PencilRunOutput, Error> {
        self.execute_traced(input, &Resilience::default(), &mut NoopRecorder)
    }

    /// One overlapped transform with a stall policy and a trace sink.
    pub fn execute_traced<R: Recorder>(
        &mut self,
        input: &[Complex64],
        res: &Resilience,
        recorder: &mut R,
    ) -> Result<PencilRunOutput, Error> {
        let plans = Some(&mut self.plans);
        let out = self
            .pinned
            .run(input, res, recorder, plans, &mut self.staging)?;
        self.executions += 1;
        Ok(out)
    }

    /// Completed executions.
    pub fn executions(&self) -> u64 {
        self.executions
    }

    /// Frees every initialised persistent plan over the subcommunicator
    /// that posted it; returns how many were freed.
    pub fn free(mut self) -> usize {
        self.release()
    }

    fn release(&mut self) -> usize {
        let [row, col] = &mut self.plans;
        row.free_all(&self.pinned.row_comm) + col.free_all(&self.pinned.col_comm)
    }
}

impl Drop for PencilSession {
    fn drop(&mut self) {
        self.release();
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

/// Whether `(params, grid)` is worth evaluating for the overlapped pencil
/// backend — the tuner's feasibility predicate.
pub fn pencil_feasible(spec: &ProblemSpec, grid: PencilGrid, params: &TuningParams) -> bool {
    !grid.is_empty()
        && grid.len() == spec.p
        && spec.nx > 0
        && spec.ny > 0
        && spec.nz > 0
        && params.t >= 1
        && params.t <= spec.nx.max(spec.nz)
        && params.threads >= 1
}

// ---------------------------------------------------------------------------
// Test/verification helpers (shared with mpicheck and the test suites)
// ---------------------------------------------------------------------------

/// `rank`'s `(X_r, Y_c, Z_all)` pencil of the deterministic
/// [`test_field`] array — the standard input for pencil correctness
/// checks.
pub fn pencil_test_input(spec: &ProblemSpec, grid: PencilGrid, rank: usize) -> Vec<Complex64> {
    let (row, col) = grid.coords(rank);
    let xs = AxisSplit::new(spec.nx, grid.pr);
    let ys = AxisSplit::new(spec.ny, grid.pc);
    let mut v = Vec::new();
    for xl in 0..xs.count(row) {
        for yl in 0..ys.count(col) {
            for z in 0..spec.nz {
                v.push(test_field(xs.offset(row) + xl, ys.offset(col) + yl, z));
            }
        }
    }
    v
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
    pub(crate) fn transport_state(&self) -> (&[TilePlans; 2], &Staging) {
        (&self.plans, &self.staging)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::{fft3_serial, full_test_array};
    use crate::trace::MemRecorder;
    use std::sync::Arc;

    fn serial_reference(spec: ProblemSpec, dir: Direction) -> Arc<Vec<Complex64>> {
        let mut reference = full_test_array(spec.nx, spec.ny, spec.nz);
        fft3_serial(&mut reference, spec.nx, spec.ny, spec.nz, dir);
        Arc::new(reference)
    }

    fn check(spec: ProblemSpec, grid: PencilGrid) {
        let reference = serial_reference(spec, Direction::Forward);
        let errs = mpisim::run(spec.p, move |comm| {
            let input = pencil_test_input(&spec, grid, comm.rank());
            let out = try_fft3_pencil(&comm, spec, grid, Direction::Forward, &input)
                .expect("blocking pencil transform");
            compare_pencil_with_serial(&spec, grid, comm.rank(), &out, &reference)
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
                try_fft3_pencil_overlapped(&comm, spec, grid, params, Direction::Forward, &input)
                    .expect("overlapped pencil transform");
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
            let blocking = try_fft3_pencil(&comm, spec, grid, Direction::Forward, &input)
                .expect("blocking pencil transform");
            let overlapped =
                try_fft3_pencil_overlapped(&comm, spec, grid, params, Direction::Forward, &input)
                    .expect("overlapped pencil transform");
            let same_bits = blocking
                .data
                .iter()
                .zip(overlapped.output.data.iter())
                .all(|(a, b)| (a.re.to_bits(), a.im.to_bits()) == (b.re.to_bits(), b.im.to_bits()));
            same_bits
                && blocking.ny2l == overlapped.output.ny2l
                && blocking.nzl == overlapped.output.nzl
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
            let blocking = try_fft3_pencil(&comm, spec, bad, Direction::Forward, &input).err();
            let overlapped = try_fft3_pencil_overlapped(
                &comm,
                spec,
                bad,
                pencil_seed(&spec, bad),
                Direction::Forward,
                &input,
            )
            .err();
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
            let dims = PencilDims::new(&spec, grid, comm.rank());
            let k1 = dims.nxl.div_ceil(params.t.clamp(1, dims.nxl.max(1)));
            let k2 = dims.nzl.div_ceil(params.t.clamp(1, dims.nzl.max(1)));
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
            try_fft3_pencil_overlapped_traced(
                &comm,
                spec,
                grid,
                params,
                Direction::Forward,
                &input,
                &Resilience::default(),
                &mut rec,
            )
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
