//! Real execution backend: the distributed 3-D FFT running on actual data
//! over the [`mpisim`] runtime, with [`cfft`] kernels.
//!
//! This backend exists to prove the *algorithm* correct — every variant
//! (NEW, NEW-0, TH, FFTW-style) must reproduce the serial reference
//! transform bit-for-bit (up to floating-point tolerance) for any problem
//! shape, divisible or not. The performance story is told by the simulated
//! backend; here the timings are real wall-clock and only meaningful for
//! laptop-scale smoke benchmarks.
//!
//! Entry points: [`try_fft3_dist_traced`] (tracing plus a stall policy),
//! [`try_fft3_dist`] (neither), the panicking [`fft3_dist`], and
//! [`FftSession`] (setup once, execute many). All run one executor; what it
//! keeps to itself is the slab's index kernels, FFT batches and integrity
//! checks — every tile moves through `crate::transport`.

use crate::breakdown::{RunStats, StepTimes};
use crate::decomp::Decomp;
use crate::error::{Error, IntegrityStage};
use crate::params::{ParamError, ProblemSpec, TuningParams};
use crate::pipeline::{try_run_new, try_run_th, OverlapEnv, Recovery, Resilience};
use crate::trace::{DegradeAction, EventKind, NoopRecorder, Recorder};
use crate::transport::{PollSchedule, Req, Staging, TilePlans, Transport};
use crate::xplan::{ExchangeGeometry, TileExchange, TransformPlanCache};
use cfft::batch::{
    execute_batch, execute_lines_threaded, for_each_part_threaded, for_each_row_threaded,
    BatchLayout, BatchScratch,
};
use cfft::planner::{Plan1d, Rigor};
use cfft::{Complex64, Direction, PlanCache};
use faultplan::{checksum, flip_seeded_bit};
use mpisim::Comm;
use std::ops::Range;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Which algorithm variant to execute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// The paper's NEW: full ten-parameter overlap pipeline (use
    /// [`TuningParams::without_overlap`] for NEW-0).
    New,
    /// Hoefler et al.'s TH: overlap restricted to FFTy+Pack, no loop
    /// tiling, naive transpose.
    Th,
    /// FFTW-style baseline: one blocking all-to-all over the whole slab,
    /// no tiles, no overlap.
    Fftw,
}

/// How the Transpose step is performed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TransposeStyle {
    /// §3.5 fast path (`x-z-y`), legal only when `Nx = Ny`.
    Fast,
    /// Cache-blocked generic `z-x-y` (the "FFTW guru" quality path).
    Generic,
    /// Unblocked `z-x-y` loop nest — models TH's non-optimized rearrangement.
    Naive,
}

/// Tile edge of the blocked plane transpose (every style but
/// [`TransposeStyle::Naive`]).
const TRANSPOSE_BLOCK: usize = 16;

/// Output memory layout of the distributed transform (y-slab local array).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutLayout {
    /// `(z, y_local, x)` with x contiguous — the standard path's result.
    Zyx,
    /// `(y_local, z, x)` with x contiguous — the §3.5 fast path's result.
    Yzx,
}

/// Result of a distributed execution on one rank.
pub struct RunOutput {
    /// This rank's y-slab of the transformed array.
    pub data: Vec<Complex64>,
    /// Layout of `data`.
    pub layout: OutLayout,
    /// Timing statistics.
    pub stats: RunStats,
    /// What the degradation ladder had to do (empty for a clean run, and
    /// always empty when the watchdog is disabled).
    pub recovery: Recovery,
    /// Planning time this call actually incurred. Exactly zero when every
    /// plan came from the process-wide [`PlanCache`] — i.e. for any repeat
    /// of a geometry this process has transformed before.
    pub planning: Duration,
    /// Exchange schedule setups this call performed: one per ad-hoc
    /// all-to-all post, one per persistent-plan init. Through an
    /// [`FftSession`] the per-tile plans are set up lazily on the first
    /// execution, so every execution after the first reports exactly zero —
    /// the setup-once / execute-many steady state.
    pub exchange_setups: u64,
}

/// Per-rank compute memory of the slab pipeline: with the network
/// [`Staging`], everything one transform touches besides the caller's input
/// and the output it returns. An [`FftSession`] owns both for its lifetime,
/// so a steady-state execution allocates nothing but its output; the
/// one-shot entry points build them per call. Every buffer is fully
/// rewritten before it is read, so nothing of one execution can reach the
/// next one's result (DESIGN.md §15).
#[derive(Default)]
struct Workspace {
    /// Transposed slab: z-x-y (standard) or x-z-y (fast).
    zxy: Vec<Complex64>,
    /// FFTz scratch: one x-plane (`Ny·Nz`) per worker thread.
    planes: Vec<Complex64>,
    /// Block buffers of the three FFT steps (grown by the first that needs
    /// more; the FFTz workers beyond the first bring their own).
    scratch: BatchScratch,
    /// ABFT checksum line: Σ over the sub-tile's batch, captured before the
    /// in-place transform and transformed alongside it (DESIGN.md §16).
    abft_line: Vec<Complex64>,
    /// Post-transform batch sum, compared against the transformed
    /// [`Self::abft_line`].
    abft_post: Vec<Complex64>,
    /// Offsets of the current sub-tile's lines (FFTy's and FFTx's alike),
    /// ascending.
    rows: Vec<usize>,
}

impl Workspace {
    /// Sizes the buffers for one run; changes nothing from a session's
    /// second execution on.
    fn prepare(&mut self, slab: usize, planes: usize) {
        if self.zxy.len() != slab {
            self.zxy = vec![Complex64::ZERO; slab];
        }
        self.planes.resize(planes, Complex64::ZERO);
    }
}

struct RealEnv<'a> {
    comm: &'a Comm,
    spec: ProblemSpec,
    params: TuningParams,
    decomp: Decomp,
    /// Per-tile exchange geometry from the process-wide
    /// [`TransformPlanCache`] — never recomputed per call.
    geom: Arc<ExchangeGeometry>,
    /// Posts, polls, waits and pools every tile's exchange over `comm`.
    net: Transport<'a>,
    nxl: usize,
    nyl: usize,
    transpose_style: TransposeStyle,
    layout: OutLayout,
    plan_z: Arc<Plan1d>,
    plan_y: Arc<Plan1d>,
    plan_x: Arc<Plan1d>,
    /// The caller's slab (x-y-z), read once by FFTz+Transpose.
    input: &'a [Complex64],
    ws: &'a mut Workspace,
    /// Output slab: z-y-x or y-z-x.
    out: Vec<Complex64>,
    /// Resident hash over the packed staging buffer, set by the pack and
    /// re-verified at post time — memory SDC on the pack→post boundary is
    /// caught before the bytes reach any peer.
    send_hash: u64,
    /// `F*` multiplier applied by the ladder's boost-polls rung.
    poll_boost: u32,
    /// The boost is applied at most once per run.
    boosted: bool,
    /// The compute steps' shares; the transport keeps the network steps'.
    steps: StepTimes,
}

impl<'a> RealEnv<'a> {
    fn tile_range(&self, tile: usize) -> (usize, usize) {
        let z0 = tile * self.params.t;
        let z1 = (z0 + self.params.t).min(self.spec.nz);
        (z0, z1)
    }

    /// Flat index of row `(z, xl)` of the transposed slab — a closure over
    /// copies, so callers can hold it across borrows of `self`.
    fn zxy_row(&self) -> impl Fn(usize, usize) -> usize + Copy {
        let (style, nz, ny, nxl) = (self.transpose_style, self.spec.nz, self.spec.ny, self.nxl);
        move |z, xl| match style {
            TransposeStyle::Fast => (xl * nz + z) * ny,
            _ => (z * nxl + xl) * ny,
        }
    }

    /// Flat index into the output slab for `(z, yl, x)`.
    #[inline]
    fn out_idx(&self, z: usize, yl: usize, x: usize) -> usize {
        match self.layout {
            OutLayout::Zyx => (z * self.nyl + yl) * self.spec.nx + x,
            OutLayout::Yzx => (yl * self.spec.nz + z) * self.spec.nx + x,
        }
    }

    /// Copies the y-runs of the transposed slab's rows `(z, xl)` into the
    /// staging buffer's per-destination blocks, each laid out
    /// (z_local, x_local, y_local): the sequential Pack of one sub-tile,
    /// and — over a whole tile — the re-pack of [`OverlapEnv::retransmit`].
    fn pack_rows(&mut self, xg: &TileExchange, z0: usize, zs: Range<usize>, xs: Range<usize>) {
        let (nxl, zxy_row) = (self.nxl, self.zxy_row());
        let send = self.net.staged(xg.total_send);
        for z in zs {
            let zl = z - z0;
            for xl in xs.clone() {
                let row = zxy_row(z, xl);
                let in_block_row = zl * nxl + xl;
                for (q, &q_displ) in xg.send_displs.iter().enumerate() {
                    let nyl_q = self.decomp.y.count(q);
                    let yoff = self.decomp.y.offset(q);
                    let dst = q_displ + in_block_row * nyl_q;
                    let src = row + yoff;
                    // Contiguous y-run copy.
                    send[dst..dst + nyl_q].copy_from_slice(&self.ws.zxy[src..src + nyl_q]);
                }
            }
        }
    }
}

/// Accumulates the batch sum of `starts.len()` rows of `data`, each `n`
/// elements long, into `dst` (cleared first) — the ABFT checksum line.
fn abft_sum_rows(dst: &mut Vec<Complex64>, data: &[Complex64], starts: &[usize], n: usize) {
    dst.clear();
    dst.resize(n, Complex64::ZERO);
    for &s in starts {
        for (acc, v) in dst.iter_mut().zip(&data[s..s + n]) {
            *acc += *v;
        }
    }
}

/// Relative ABFT tolerance. FFT roundoff on the checksum comparison is
/// ~1e-13 of the batch scale on realistic sizes, four orders below this
/// threshold — while a flipped sign, exponent, or high-mantissa bit lands
/// many orders above it. (Flips of the lowest mantissa bits are below any
/// tolerance an f64 check can hold and are numerically inconsequential.)
const ABFT_TOL: f64 = 1e-9;

/// Whether the transformed checksum line equals the post-transform batch
/// sum within tolerance — the linearity identity FFT(Σ) = Σ FFT(·).
fn abft_agrees(sum_fft: &[Complex64], post_sum: &[Complex64], batch: usize) -> bool {
    let mut scale = 1.0f64;
    let mut worst = 0.0f64;
    for (a, b) in sum_fft.iter().zip(post_sum) {
        scale = scale.max(a.abs()).max(b.abs());
        worst = worst.max((*a - *b).abs());
    }
    worst <= ABFT_TOL * scale * (batch.max(sum_fft.len()).max(1)) as f64
}

impl<'a> OverlapEnv for RealEnv<'a> {
    type Req = Req;

    fn num_tiles(&self) -> usize {
        self.params.tiles(&self.spec)
    }

    fn window(&self) -> usize {
        self.params.w
    }

    fn fftz_transpose(&mut self) {
        // One x-plane at a time, straight from the caller's slab: copy the
        // plane (Ny·Nz — cache-resident) into scratch, FFTz its Ny lines
        // there, and write it transposed to its place in `zxy`. The slab is
        // read once and written once; `threads > 1` splits the planes across
        // workers, each with a plane scratch of its own.
        let (nxl, ny, nz) = (self.nxl, self.spec.ny, self.spec.nz);
        let plane_len = ny * nz;
        let t0 = Instant::now();
        let mut spent = (Duration::ZERO, Duration::ZERO);
        if nxl * plane_len > 0 {
            let per = nxl.div_ceil(self.params.threads.clamp(1, nxl));
            let (input, plan_z, style) = (self.input, &*self.plan_z, self.transpose_style);
            let ws = &mut *self.ws;
            // Worker `w` owns planes `w·per..`, and with them these parts of
            // `zxy` — x-z-y: its planes, one contiguous run; z-x-y: for each
            // `z`, its planes' `Ny`-rows.
            let mut dsts: Vec<Vec<&mut [Complex64]>> = Vec::new();
            if style == TransposeStyle::Fast {
                dsts.extend(ws.zxy.chunks_mut(per * plane_len).map(|run| vec![run]));
            } else {
                dsts.resize_with(nxl.div_ceil(per), || Vec::with_capacity(nz));
                for z_rows in ws.zxy.chunks_mut(nxl * ny) {
                    for (dst, rows) in dsts.iter_mut().zip(z_rows.chunks_mut(per * ny)) {
                        dst.push(rows);
                    }
                }
            }
            let work = |w: usize,
                        mut dst: Vec<&mut [Complex64]>,
                        plane: &mut [Complex64],
                        scratch: &mut BatchScratch| {
                let block = match style {
                    TransposeStyle::Naive => ny.max(nz),
                    _ => TRANSPOSE_BLOCK,
                };
                let mut spent = (Duration::ZERO, Duration::ZERO);
                let x0 = w * per;
                for x in x0..(x0 + per).min(nxl) {
                    let a = Instant::now();
                    plane.copy_from_slice(&input[x * plane_len..(x + 1) * plane_len]);
                    execute_batch(plan_z, plane, BatchLayout::contiguous(nz, ny), scratch);
                    let b = Instant::now();
                    let xi = x - x0;
                    // Row `z` of the transposed plane: `Ny` contiguous
                    // elements in either layout.
                    for bz in (0..nz).step_by(block) {
                        for by in (0..ny).step_by(block) {
                            for z in bz..(bz + block).min(nz) {
                                let row = match style {
                                    TransposeStyle::Fast => &mut dst[0][(xi * nz + z) * ny..],
                                    _ => &mut dst[z][xi * ny..],
                                };
                                for (y, v) in (by..(by + block).min(ny)).zip(&mut row[by..]) {
                                    *v = plane[y * nz + z];
                                }
                            }
                        }
                    }
                    spent.0 += b - a;
                    spent.1 += b.elapsed();
                }
                spent
            };
            // This thread takes the first share, spawned workers the rest.
            let mut tasks = dsts.into_iter().zip(ws.planes.chunks_mut(plane_len));
            let (dst, plane) = tasks.next().expect("at least one plane");
            let work = &work;
            spent = std::thread::scope(|s| {
                let others: Vec<_> = (1..)
                    .zip(tasks)
                    .map(|(w, (dst, plane))| {
                        s.spawn(move || work(w, dst, plane, &mut BatchScratch::for_plan(plan_z)))
                    })
                    .collect();
                let mut spent = work(0, dst, plane, &mut ws.scratch);
                for h in others {
                    let (fz, tr) = h.join().unwrap_or_else(|e| std::panic::resume_unwind(e));
                    spent = (spent.0 + fz, spent.1 + tr);
                }
                spent
            });
        }
        // The two steps interleave plane by plane (and run concurrently
        // across workers), so each gets its measured share of the interval.
        let t1 = Instant::now();
        let share =
            spent.0.as_secs_f64() / (spent.0 + spent.1).as_secs_f64().max(f64::MIN_POSITIVE);
        let mid = t0 + (t1 - t0).mul_f64(share);
        self.steps.fftz += (mid - t0).as_secs_f64();
        self.net.span(t0, mid, EventKind::Fftz);
        self.steps.transpose += (t1 - mid).as_secs_f64();
        self.net.span(mid, t1, EventKind::Transpose);
    }

    fn ffty_pack(&mut self, tile: usize, inflight: &mut [(usize, Self::Req)]) -> Result<(), Error> {
        let (z0, z1) = self.tile_range(tile);
        let tz = z1 - z0;
        let ny = self.spec.ny;
        let nxl = self.nxl;
        let (px, pz) = (
            self.params.px.min(nxl.max(1)),
            self.params.pz.min(tz.max(1)),
        );
        if nxl == 0 || tz == 0 {
            // Nothing staged: the resident hash must cover the empty
            // payload this tile will post.
            self.send_hash = checksum::<Complex64>(&[]);
            return Ok(());
        }

        // Sub-tile grid (Figure 4, left): Px × Ny × Pz blocks.
        let xblocks = nxl.div_ceil(px);
        let zblocks = tz.div_ceil(pz);
        let subtiles = xblocks * zblocks;
        let mut sched_y = PollSchedule::new(subtiles, self.params.fy);
        let mut sched_p = PollSchedule::new(subtiles, self.params.fp);

        let geom = Arc::clone(&self.geom);
        let xg = &*geom.tiles[tile];
        let send_displs = &xg.send_displs;
        let total_send = xg.total_send;
        let zxy_row = self.zxy_row();

        for zb in 0..zblocks {
            let zs = z0 + zb * pz;
            let ze = (zs + pz).min(z1);
            for xb in 0..xblocks {
                let xs = xb * px;
                let xe = (xs + px).min(nxl);

                // Row starts of the sub-tile's y lines (disjoint whichever
                // layout `zxy_row` uses, ascending for one of them — sorted
                // here, once, for the splitter), shared by the transform and
                // the ABFT sums below.
                self.ws.rows.clear();
                for z in zs..ze {
                    for xl in xs..xe {
                        self.ws.rows.push(zxy_row(z, xl));
                    }
                }
                self.ws.rows.sort_unstable();

                // ABFT (DESIGN.md §16): capture the batch checksum line
                // Σ(lines) before the in-place FFTy. Linearity demands
                // FFT(Σ lines) = Σ FFT(lines) within roundoff, so a compute
                // or memory fault inside the transform window breaks the
                // equality far beyond tolerance.
                abft_sum_rows(&mut self.ws.abft_line, &self.ws.zxy, &self.ws.rows, ny);

                // FFTy on every y line of the sub-tile.
                let t0 = Instant::now();
                execute_lines_threaded(
                    &self.plan_y,
                    &mut self.ws.zxy,
                    &self.ws.rows,
                    self.params.threads,
                    &mut self.ws.scratch,
                );
                let t1 = Instant::now();
                self.steps.ffty += (t1 - t0).as_secs_f64();
                self.net.span(
                    t0,
                    t1,
                    EventKind::Ffty {
                        tile,
                        subtile: zb * xblocks + xb,
                    },
                );

                // Transform the checksum line and compare with the batch sum
                // of the transformed lines.
                execute_batch(
                    &self.plan_y,
                    &mut self.ws.abft_line,
                    BatchLayout::contiguous(ny, 1),
                    &mut self.ws.scratch,
                );
                abft_sum_rows(&mut self.ws.abft_post, &self.ws.zxy, &self.ws.rows, ny);
                if !abft_agrees(&self.ws.abft_line, &self.ws.abft_post, self.ws.rows.len()) {
                    self.net.mark(EventKind::Corrupt { tile });
                    return Err(Error::IntegrityFailed {
                        tile,
                        stage: IntegrityStage::Ffty,
                    });
                }

                let due = sched_y.after_unit();
                self.net.poll(inflight, due)?;

                // Pack the sub-tile into per-destination blocks, each laid
                // out (z_local, x_local, y_local).
                let t0 = Instant::now();
                if self.params.threads > 1 {
                    // Parallel over destination ranks: each worker owns whole
                    // per-destination send blocks (disjoint `&mut`) and reads
                    // the shared transposed slab.
                    let mut bounds = send_displs.to_vec();
                    bounds.push(total_send);
                    let zxy = &self.ws.zxy;
                    let decomp = &self.decomp;
                    for_each_part_threaded(
                        self.net.staged(total_send),
                        &bounds,
                        self.params.threads,
                        |q, part| {
                            let nyl_q = decomp.y.count(q);
                            let yoff = decomp.y.offset(q);
                            for z in zs..ze {
                                let zl = z - z0;
                                for xl in xs..xe {
                                    let src = zxy_row(z, xl) + yoff;
                                    let dst = (zl * nxl + xl) * nyl_q;
                                    part[dst..dst + nyl_q].copy_from_slice(&zxy[src..src + nyl_q]);
                                }
                            }
                        },
                    );
                } else {
                    self.pack_rows(xg, z0, zs..ze, xs..xe);
                }
                let t1 = Instant::now();
                self.steps.pack += (t1 - t0).as_secs_f64();
                self.net.span(
                    t0,
                    t1,
                    EventKind::Pack {
                        tile,
                        subtile: zb * xblocks + xb,
                    },
                );
                let due = sched_p.after_unit();
                self.net.poll(inflight, due)?;
            }
        }
        // Seal the staged payload: post time re-verifies this hash, so any
        // memory corruption on the pack→post boundary is caught before the
        // bytes reach a peer.
        self.send_hash = checksum(self.net.staged(total_send));
        Ok(())
    }

    fn post_a2a(&mut self, tile: usize) -> Self::Req {
        // Fault-plan crash injection: a rank seeded to die "at tile `k`"
        // dies here, on the boundary between pack and exchange — its peers
        // may already hold this tile's pre-crash sends (and must still be
        // able to complete tiles that need nothing more from us).
        self.comm.crash_point(tile);
        let geom = Arc::clone(&self.geom);
        let xg = &*geom.tiles[tile];
        // Fault-plan memory-SDC injection: flip one seeded bit of the
        // packed staging buffer on the same pack→post boundary.
        if let Some(site) = self.comm.bitflip_point(tile) {
            flip_seeded_bit(self.net.staged(xg.total_send), site);
        }
        // Resident hash check: the staged payload must still be the bytes
        // the pack sealed, or the exchange is withheld — the request
        // surfaces the failure at wait time and the driver re-packs from
        // the pristine transformed slab (no peer sequenced anything).
        if checksum(self.net.staged(xg.total_send)) != self.send_hash {
            self.net.mark(EventKind::Corrupt { tile });
            return Req::Withheld(IntegrityStage::Pack);
        }
        self.net.post(tile, xg)
    }

    fn wait(&mut self, tile: usize, req: Self::Req) -> Result<(), (Self::Req, Error)> {
        self.net.wait(tile, req)
    }

    fn unpack_fftx(
        &mut self,
        tile: usize,
        inflight: &mut [(usize, Self::Req)],
    ) -> Result<(), Error> {
        let recv = self.net.take_recv()?;
        let (z0, z1) = self.tile_range(tile);
        let tz = z1 - z0;
        let nx = self.spec.nx;
        let nyl = self.nyl;
        if nyl == 0 || tz == 0 {
            self.net.recycle(recv);
            return Ok(());
        }
        let (uy, uz) = (self.params.uy.min(nyl), self.params.uz.min(tz));

        let geom = Arc::clone(&self.geom);
        let recv_displs = &geom.tiles[tile].recv_displs;

        // Sub-tile grid (Figure 4, right): Nx × Uy × Uz blocks.
        let yblocks = nyl.div_ceil(uy);
        let zblocks = tz.div_ceil(uz);
        let subtiles = yblocks * zblocks;
        let mut sched_u = PollSchedule::new(subtiles, self.params.fu);
        let mut sched_x = PollSchedule::new(subtiles, self.params.fx);

        for zb in 0..zblocks {
            let zs = z0 + zb * uz;
            let ze = (zs + uz).min(z1);
            for yb in 0..yblocks {
                let ys = yb * uy;
                let ye = (ys + uy).min(nyl);

                // Output rows of this sub-tile, sorted by offset — shared by
                // the parallel Unpack and FFTx paths below. Rows are disjoint
                // length-nx slices whichever `out_idx` layout is active.
                let rows: Vec<(usize, (usize, usize))> = if self.params.threads > 1 {
                    let mut rows: Vec<(usize, (usize, usize))> = (zs..ze)
                        .flat_map(|z| (ys..ye).map(move |yl| (z, yl)))
                        .map(|(z, yl)| (self.out_idx(z, yl, 0), (z, yl)))
                        .collect();
                    rows.sort_unstable_by_key(|r| r.0);
                    rows
                } else {
                    Vec::new()
                };

                // Unpack: source block from rank s is (z_local, x_in_s,
                // y_local); destination rows are x-contiguous.
                let t0 = Instant::now();
                if self.params.threads > 1 {
                    let decomp = &self.decomp;
                    let recv_ref = &recv;
                    let displs = &recv_displs;
                    for_each_row_threaded(
                        &mut self.out,
                        nx,
                        &rows,
                        self.params.threads,
                        |row, &(z, yl)| {
                            let zl = z - z0;
                            for (s, &s_displ) in displs.iter().enumerate() {
                                let nxl_s = decomp.x.count(s);
                                let xoff = decomp.x.offset(s);
                                let base = s_displ + (zl * nxl_s) * nyl + yl;
                                for xl in 0..nxl_s {
                                    row[xoff + xl] = recv_ref[base + xl * nyl];
                                }
                            }
                        },
                    );
                } else {
                    for z in zs..ze {
                        let zl = z - z0;
                        for yl in ys..ye {
                            let out_row = self.out_idx(z, yl, 0);
                            for (s, &s_displ) in recv_displs.iter().enumerate() {
                                let nxl_s = self.decomp.x.count(s);
                                let xoff = self.decomp.x.offset(s);
                                let base = s_displ + (zl * nxl_s) * nyl + yl;
                                for xl in 0..nxl_s {
                                    self.out[out_row + xoff + xl] = recv[base + xl * nyl];
                                }
                            }
                        }
                    }
                }
                let t1 = Instant::now();
                self.steps.unpack += (t1 - t0).as_secs_f64();
                self.net.span(
                    t0,
                    t1,
                    EventKind::Unpack {
                        tile,
                        subtile: zb * yblocks + yb,
                    },
                );
                let due = sched_u.after_unit();
                self.net.poll(inflight, due)?;

                // ABFT checksum line through FFTx — same linearity identity
                // as the FFTy check in `ffty_pack`.
                self.ws.rows.clear();
                for z in zs..ze {
                    for yl in ys..ye {
                        let row = self.out_idx(z, yl, 0);
                        self.ws.rows.push(row);
                    }
                }
                self.ws.rows.sort_unstable();
                abft_sum_rows(&mut self.ws.abft_line, &self.out, &self.ws.rows, nx);

                // FFTx on the unpacked x lines.
                let t0 = Instant::now();
                execute_lines_threaded(
                    &self.plan_x,
                    &mut self.out,
                    &self.ws.rows,
                    self.params.threads,
                    &mut self.ws.scratch,
                );
                let t1 = Instant::now();
                self.steps.fftx += (t1 - t0).as_secs_f64();
                self.net.span(
                    t0,
                    t1,
                    EventKind::Fftx {
                        tile,
                        subtile: zb * yblocks + yb,
                    },
                );

                execute_batch(
                    &self.plan_x,
                    &mut self.ws.abft_line,
                    BatchLayout::contiguous(nx, 1),
                    &mut self.ws.scratch,
                );
                abft_sum_rows(&mut self.ws.abft_post, &self.out, &self.ws.rows, nx);
                if !abft_agrees(&self.ws.abft_line, &self.ws.abft_post, self.ws.rows.len()) {
                    self.net.mark(EventKind::Corrupt { tile });
                    return Err(Error::IntegrityFailed {
                        tile,
                        stage: IntegrityStage::Fftx,
                    });
                }

                let due = sched_x.after_unit();
                self.net.poll(inflight, due)?;
            }
        }
        self.net.recycle(recv);
        Ok(())
    }

    fn escalate_watchdog(&mut self) {
        self.net.escalate();
    }

    fn boost_polls(&mut self) {
        if self.boosted {
            return;
        }
        self.boosted = true;
        let b = self.poll_boost.max(1);
        self.params.fy = self.params.fy.saturating_mul(b);
        self.params.fp = self.params.fp.saturating_mul(b);
        self.params.fu = self.params.fu.saturating_mul(b);
        self.params.fx = self.params.fx.saturating_mul(b);
    }

    fn on_degrade(&mut self, tile: usize, action: DegradeAction) {
        self.net.mark(EventKind::Degrade { tile, action });
    }

    fn cancel(&mut self, _tile: usize, req: Self::Req) {
        self.net.cancel(req);
    }

    fn retransmit(&mut self, tile: usize) -> Option<Self::Req> {
        // Heal a Pack-stage integrity failure: re-pack the tile from the
        // pristine transformed slab (FFTy was in place; the corruption hit
        // only the staging copy), re-seal the hash, and re-post. Sequential
        // copies — healing is off the hot path. The injection points are
        // deliberately not revisited, so a planned fault fires once.
        let (z0, z1) = self.tile_range(tile);
        let geom = Arc::clone(&self.geom);
        let xg = &*geom.tiles[tile];
        self.pack_rows(xg, z0, z0..z1, 0..self.nxl);
        self.send_hash = checksum(self.net.staged(xg.total_send));
        Some(self.net.post(tile, xg))
    }

    fn post_poisoned(&self, req: &Self::Req) -> Option<IntegrityStage> {
        match req {
            Req::Withheld(stage) => Some(*stage),
            _ => None,
        }
    }

    fn sched_point(&mut self) {
        // Give mpisim's virtual scheduler (checked runs) a deterministic
        // release point once per tile; free outside checked runs.
        self.comm.progress_hint();
    }

    fn threads(&self) -> usize {
        self.params.threads
    }
}

/// Executes one distributed 3-D FFT on this rank.
///
/// `input` is this rank's x-slab in `x-y-z` layout (`count_x(rank)·ny·nz`
/// elements). Returns this rank's y-slab of the result plus statistics.
/// Collective: every rank of `comm` must call this with consistent
/// arguments.
///
/// # Panics
/// On infeasible parameters or an unrecoverable pipeline fault; use
/// [`try_fft3_dist`] for the typed error path.
pub fn fft3_dist(
    comm: &Comm,
    spec: ProblemSpec,
    variant: Variant,
    params: TuningParams,
    dir: Direction,
    rigor: Rigor,
    input: &[Complex64],
) -> RunOutput {
    // Display keeps the legacy "infeasible parameters: …" wording that
    // callers of the panicking API match on.
    try_fft3_dist(comm, spec, variant, params, dir, rigor, input).unwrap_or_else(|e| panic!("{e}"))
}

/// Fallible [`fft3_dist`]: infeasible parameters come back as
/// [`Error::InfeasibleParams`] instead of a panic, and with a watchdog
/// armed (see [`Resilience::stall_timeout`]) a wedged exchange surfaces as
/// [`Error::Stalled`] instead of spinning forever. Runs with the default
/// [`Resilience`] (watchdog disabled).
pub fn try_fft3_dist(
    comm: &Comm,
    spec: ProblemSpec,
    variant: Variant,
    params: TuningParams,
    dir: Direction,
    rigor: Rigor,
    input: &[Complex64],
) -> Result<RunOutput, Error> {
    try_fft3_dist_traced(
        comm,
        spec,
        variant,
        params,
        dir,
        rigor,
        input,
        &Resilience::default(),
        &mut NoopRecorder,
    )
}

/// The full-control entry point: every phase span, poll and wait on this
/// rank is appended to `recorder` (see [`crate::trace`]; a [`NoopRecorder`]
/// turns tracing off), under an explicit [`Resilience`] policy. With
/// `stall_timeout` set, stalled exchanges trip the watchdog
/// and the pipeline climbs the degradation ladder (boost polls → shrink
/// window → blocking fallback) before giving up; what it did is reported
/// in [`RunOutput::recovery`]. On the error path every in-flight exchange
/// is cancelled before returning — no staged messages leak.
#[allow(clippy::too_many_arguments)]
pub fn try_fft3_dist_traced(
    comm: &Comm,
    spec: ProblemSpec,
    variant: Variant,
    params: TuningParams,
    dir: Direction,
    rigor: Rigor,
    input: &[Complex64],
    resilience: &Resilience,
    recorder: &mut dyn Recorder,
) -> Result<RunOutput, Error> {
    run_dist(
        comm,
        spec,
        variant,
        params,
        dir,
        rigor,
        input,
        resilience,
        recorder,
        &mut Workspace::default(),
        &mut Staging::default(),
        None,
    )
}

/// Shared implementation behind the one-shot entry points (working memory
/// for this call, `plans: None` — ad-hoc exchanges) and
/// [`FftSession::execute`] (the session's memory and per-tile persistent
/// plans).
#[allow(clippy::too_many_arguments)]
fn run_dist(
    comm: &Comm,
    spec: ProblemSpec,
    variant: Variant,
    params: TuningParams,
    dir: Direction,
    rigor: Rigor,
    input: &[Complex64],
    resilience: &Resilience,
    recorder: &mut dyn Recorder,
    ws: &mut Workspace,
    staging: &mut Staging,
    plans: Option<&mut TilePlans>,
) -> Result<RunOutput, Error> {
    // The clock covers everything the call does, set-up included.
    let started = Instant::now();
    assert_eq!(comm.size(), spec.p, "communicator size must match spec.p");
    // A zero-extent axis has no transform; planning a size-1 stand-in (as
    // this path once did via `.max(1)`) would silently "succeed" on an
    // empty problem. Reject it for every variant before touching plans.
    for (axis, n) in [("nx", spec.nx), ("ny", spec.ny), ("nz", spec.nz)] {
        if n == 0 {
            return Err(Error::from(ParamError::ZeroExtent(axis)));
        }
    }
    let rank = comm.rank();
    let decomp = Decomp::new(spec.nx, spec.ny, spec.p);
    let nxl = decomp.x.count(rank);
    let nyl = decomp.y.count(rank);
    assert_eq!(
        input.len(),
        nxl * spec.ny * spec.nz,
        "input must be this rank's x-slab in x-y-z layout"
    );

    // Resolve the effective parameters and styles per variant.
    let (params, transpose_style) = match variant {
        Variant::New => {
            // The non-overlapped NEW-0 encoding sets `w = 0`, which the
            // window-range rule rejects — but every other constraint must
            // still hold (a zero `Px`/`Uy`/`T` would divide by zero below).
            if params.w == 0 {
                params.validate_without_window(&spec)
            } else {
                params.validate(&spec)
            }
            .map_err(Error::from)?;
            let style = if spec.square_xy() {
                TransposeStyle::Fast
            } else {
                TransposeStyle::Generic
            };
            (params, style)
        }
        Variant::Th => {
            // TH: tile/window honoured, but no loop tiling and no polls
            // outside FFTy/Pack; plain transpose.
            let nxl_max = decomp.x.max_count().max(1);
            let nyl_max = decomp.y.max_count().max(1);
            let p = TuningParams {
                t: params.t,
                w: params.w,
                px: nxl_max,
                pz: params.t,
                uy: nyl_max,
                uz: params.t,
                fy: params.fy,
                fp: params.fp,
                fu: 0,
                fx: 0,
                threads: params.threads.max(1),
            };
            (p, TransposeStyle::Naive)
        }
        Variant::Fftw => {
            // One tile spanning the whole slab, no window, no polls.
            let p = TuningParams {
                t: spec.nz,
                w: 0,
                px: decomp.x.max_count().max(1),
                pz: spec.nz,
                uy: decomp.y.max_count().max(1),
                uz: spec.nz,
                fy: 0,
                fp: 0,
                fu: 0,
                fx: 0,
                threads: params.threads.max(1),
            };
            (p, TransposeStyle::Generic)
        }
    };

    // Draw plans from the process-wide cache: any geometry this process has
    // transformed before (at this rigor) costs zero planning here, and when
    // all `p` rank threads arrive at once only one of them measures.
    let cache = PlanCache::global();
    let (plan_z, spent_z) = cache.plan_timed(spec.nz, dir, rigor);
    let (plan_y, spent_y) = cache.plan_timed(spec.ny, dir, rigor);
    let (plan_x, spent_x) = cache.plan_timed(spec.nx, dir, rigor);
    let planning = spent_z + spent_y + spent_x;

    let layout = if transpose_style == TransposeStyle::Fast {
        OutLayout::Yzx
    } else {
        OutLayout::Zyx
    };
    // Exchange geometry from the process-wide cache: a repeat of this
    // (shape, tile) does zero schedule setup here.
    let (geom, _cached) = TransformPlanCache::global().geometry(&spec, rank, params.t);
    let plane_len = spec.ny * spec.nz;
    ws.prepare(
        nxl * plane_len,
        params.threads.clamp(1, nxl.max(1)) * plane_len,
    );
    // The windowed pipeline never has more than `W + 1` tiles between post
    // and unpack; no tile packs or receives more than a full one.
    staging.prepare(
        params.t * nxl * spec.ny,
        params.w + 1,
        params.t * spec.nx * nyl,
    );
    let timeout = resilience.stall_timeout;
    let mut env = RealEnv {
        comm,
        spec,
        params,
        geom,
        net: Transport::new(comm, plans, staging, timeout, 0, started, recorder),
        nxl,
        nyl,
        decomp,
        transpose_style,
        layout,
        plan_z,
        plan_y,
        plan_x,
        input,
        ws,
        out: vec![Complex64::ZERO; spec.nz * nyl * spec.nx],
        send_hash: 0,
        poll_boost: resilience.poll_boost,
        boosted: false,
        steps: StepTimes::default(),
    };

    let recovery = match variant {
        Variant::Th => try_run_th(&mut env, resilience)?,
        _ => try_run_new(&mut env, resilience)?,
    };

    Ok(RunOutput {
        data: env.out,
        layout,
        stats: RunStats {
            steps: env.steps + env.net.steps,
            elapsed: started.elapsed().as_secs_f64(),
            tests: env.net.tests,
        },
        recovery,
        planning,
        exchange_setups: env.net.setups,
    })
}

/// Setup-once / execute-many handle for a repeated distributed transform —
/// the user-facing face of the persistent all-to-all plans.
///
/// A session pins `(comm, spec, variant, params, dir, rigor)` and owns one
/// persistent all-to-all plan per communication tile plus the pipeline's
/// working memory (transposed slab, pack staging, scratch, and a pool of
/// `W + 1` receive buffers the plans borrow while in flight). The first
/// [`FftSession::execute`] initialises each tile's plan as it is first
/// posted (and plans the FFT kernels, unless already cached); every
/// execution after that does **zero planning and zero exchange setup** —
/// [`RunOutput::planning`] is [`Duration::ZERO`] and
/// [`RunOutput::exchange_setups`] is `0` — and allocates nothing
/// slab-sized but the output it returns. Dropping the session frees every
/// plan (so no MC006 lint fires); [`FftSession::free`] does the same
/// explicitly.
pub struct FftSession<'a> {
    comm: &'a Comm,
    spec: ProblemSpec,
    variant: Variant,
    params: TuningParams,
    dir: Direction,
    rigor: Rigor,
    plans: TilePlans,
    workspace: Workspace,
    staging: Staging,
    executions: u64,
    checkpoint_interval: Option<u64>,
    checkpoint: Option<crate::recover::Checkpoint>,
}

impl<'a> FftSession<'a> {
    /// Creates a session. No setup happens here — plans are initialised
    /// lazily during the first execution, so the first/steady-state split is
    /// observable per execution via [`RunOutput::exchange_setups`].
    pub fn new(
        comm: &'a Comm,
        spec: ProblemSpec,
        variant: Variant,
        params: TuningParams,
        dir: Direction,
        rigor: Rigor,
    ) -> Self {
        FftSession {
            comm,
            spec,
            variant,
            params,
            dir,
            rigor,
            plans: TilePlans::default(),
            workspace: Workspace::default(),
            staging: Staging::default(),
            executions: 0,
            checkpoint_interval: None,
            checkpoint: None,
        }
    }

    /// Enables periodic XOR-parity checkpoints: every `k`-th execution
    /// (the 1st, the `k+1`-th, …) collectively captures a
    /// [`crate::recover::Checkpoint`] of that execution's input before
    /// transforming, tagged with the execution number as its generation.
    /// `k = 0` disables. The latest capture is at
    /// [`FftSession::checkpoint`]; feed `Checkpoint::into_source()` to
    /// [`crate::run_recoverable`] to recompute from the last checkpointed
    /// input after a failure.
    pub fn checkpoint_every(mut self, k: u64) -> Self {
        self.checkpoint_interval = (k > 0).then_some(k);
        self
    }

    /// The most recent periodic checkpoint, when
    /// [`FftSession::checkpoint_every`] is active and at least one
    /// execution has run.
    pub fn checkpoint(&self) -> Option<&crate::recover::Checkpoint> {
        self.checkpoint.as_ref()
    }

    /// Executes the transform once over this rank's `input` x-slab,
    /// reusing the session's persistent exchange plans. Collective: every
    /// rank's session must execute in the same order.
    pub fn execute(&mut self, input: &[Complex64]) -> Result<RunOutput, Error> {
        self.execute_traced(input, &Resilience::default(), &mut NoopRecorder)
    }

    /// [`Self::execute`] with tracing and an explicit [`Resilience`]
    /// policy (the [`try_fft3_dist_traced`] of the session path).
    pub fn execute_traced(
        &mut self,
        input: &[Complex64],
        resilience: &Resilience,
        recorder: &mut dyn Recorder,
    ) -> Result<RunOutput, Error> {
        self.executions += 1;
        if let Some(k) = self.checkpoint_interval {
            if (self.executions - 1) % k == 0 {
                self.checkpoint = Some(crate::recover::Checkpoint::capture_tagged(
                    self.comm,
                    &self.spec,
                    input,
                    self.executions,
                ));
            }
        }
        run_dist(
            self.comm,
            self.spec,
            self.variant,
            self.params,
            self.dir,
            self.rigor,
            input,
            resilience,
            recorder,
            &mut self.workspace,
            &mut self.staging,
            Some(&mut self.plans),
        )
    }

    /// Executions attempted over this session's lifetime.
    pub fn executions(&self) -> u64 {
        self.executions
    }

    /// Live per-tile persistent plans (tiles not yet posted, or freed by a
    /// fault path, have none).
    pub fn live_plans(&self) -> usize {
        self.plans.live()
    }

    /// Releases every persistent plan. Equivalent to dropping the session,
    /// but explicit at call sites that want the free visible.
    pub fn free(self) {}
}

impl Drop for FftSession<'_> {
    fn drop(&mut self) {
        self.plans.free_all(self.comm);
    }
}

/// Builds this rank's x-slab of the deterministic test field.
pub fn local_test_slab(spec: &ProblemSpec, rank: usize) -> Vec<Complex64> {
    let decomp = Decomp::new(spec.nx, spec.ny, spec.p);
    let nxl = decomp.x.count(rank);
    let xoff = decomp.x.offset(rank);
    let mut v = Vec::with_capacity(nxl * spec.ny * spec.nz);
    for xl in 0..nxl {
        for y in 0..spec.ny {
            for z in 0..spec.nz {
                v.push(crate::serial::test_field(xoff + xl, y, z));
            }
        }
    }
    v
}

/// Compares a rank's distributed output slab against the serial reference
/// transform of the full test field; returns the max absolute deviation.
pub fn compare_with_serial(
    spec: &ProblemSpec,
    rank: usize,
    out: &RunOutput,
    reference: &[Complex64],
) -> f64 {
    let decomp = Decomp::new(spec.nx, spec.ny, spec.p);
    let nyl = decomp.y.count(rank);
    let yoff = decomp.y.offset(rank);
    let mut err: f64 = 0.0;
    for z in 0..spec.nz {
        for yl in 0..nyl {
            for x in 0..spec.nx {
                let got = match out.layout {
                    OutLayout::Zyx => out.data[(z * nyl + yl) * spec.nx + x],
                    OutLayout::Yzx => out.data[(yl * spec.nz + z) * spec.nx + x],
                };
                let want = reference[(x * spec.ny + (yoff + yl)) * spec.nz + z];
                err = err.max((got - want).abs());
            }
        }
    }
    err
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::{fft3_serial, full_test_array};

    fn check_variant(spec: ProblemSpec, variant: Variant, params: TuningParams, dir: Direction) {
        let mut reference = full_test_array(spec.nx, spec.ny, spec.nz);
        fft3_serial(&mut reference, spec.nx, spec.ny, spec.nz, dir);
        let reference = std::sync::Arc::new(reference);

        let errs = mpisim::run(spec.p, move |comm| {
            let input = local_test_slab(&spec, comm.rank());
            let out = fft3_dist(&comm, spec, variant, params, dir, Rigor::Estimate, &input);
            compare_with_serial(&spec, comm.rank(), &out, &reference)
        });
        let scale = (spec.len() as f64).max(1.0);
        for (r, e) in errs.iter().enumerate() {
            assert!(
                *e < 1e-9 * scale,
                "rank {r}: err {e} (spec {spec:?}, {variant:?})"
            );
        }
    }

    #[test]
    fn new_variant_matches_serial_cube() {
        let spec = ProblemSpec::cube(16, 4);
        let params = TuningParams::seed(&spec);
        check_variant(spec, Variant::New, params, Direction::Forward);
    }

    #[test]
    fn new_variant_matches_serial_non_square() {
        // Nx ≠ Ny forces the generic transpose path.
        let spec = ProblemSpec {
            nx: 12,
            ny: 8,
            nz: 10,
            p: 4,
        };
        let params = TuningParams {
            t: 3,
            w: 2,
            px: 2,
            pz: 2,
            uy: 2,
            uz: 3,
            fy: 2,
            fp: 1,
            fu: 1,
            fx: 2,
            threads: 1,
        };
        check_variant(spec, Variant::New, params, Direction::Forward);
    }

    #[test]
    fn new_variant_handles_non_divisible_extents() {
        // Nx mod p ≠ 0 and Ny mod p ≠ 0 (the paper's "general case").
        let spec = ProblemSpec {
            nx: 10,
            ny: 9,
            nz: 8,
            p: 4,
        };
        let params = TuningParams {
            t: 4,
            w: 2,
            px: 1,
            pz: 2,
            uy: 2,
            uz: 2,
            fy: 1,
            fp: 1,
            fu: 1,
            fx: 1,
            threads: 1,
        };
        check_variant(spec, Variant::New, params, Direction::Forward);
    }

    #[test]
    fn new_0_variant_matches_serial() {
        let spec = ProblemSpec::cube(12, 3);
        let params = TuningParams::seed(&spec).without_overlap();
        check_variant(spec, Variant::New, params, Direction::Forward);
    }

    #[test]
    fn th_variant_matches_serial() {
        let spec = ProblemSpec::cube(16, 4);
        let params = TuningParams::seed(&spec);
        check_variant(spec, Variant::Th, params, Direction::Forward);
    }

    #[test]
    fn fftw_variant_matches_serial() {
        let spec = ProblemSpec::cube(12, 4);
        let params = TuningParams::seed(&spec);
        check_variant(spec, Variant::Fftw, params, Direction::Forward);
    }

    #[test]
    fn backward_direction_matches_serial() {
        let spec = ProblemSpec::cube(8, 2);
        let params = TuningParams::seed(&spec);
        check_variant(spec, Variant::New, params, Direction::Backward);
    }

    #[test]
    fn single_rank_works() {
        let spec = ProblemSpec::cube(8, 1);
        let params = TuningParams::seed(&spec);
        check_variant(spec, Variant::New, params, Direction::Forward);
    }

    #[test]
    fn w0_with_zero_subtile_is_rejected_not_a_divide_by_zero() {
        // Regression: with `w = 0` (NEW-0) the validator used to be skipped
        // entirely, so a zero Px reached `div_ceil` and crashed with
        // "attempt to divide by zero" instead of a parameter diagnostic.
        // Now the fallible API reports it as a typed error.
        let spec = ProblemSpec::cube(8, 2);
        let mut params = TuningParams::seed(&spec).without_overlap();
        params.px = 0;
        let errs = mpisim::run(spec.p, move |comm| {
            let input = local_test_slab(&spec, comm.rank());
            try_fft3_dist(
                &comm,
                spec,
                Variant::New,
                params,
                Direction::Forward,
                Rigor::Estimate,
                &input,
            )
            .map(|_| ())
        });
        for e in errs {
            let err = e.unwrap_err();
            assert!(matches!(err, Error::InfeasibleParams(_)), "{err}");
        }
    }

    #[test]
    fn w0_with_zero_tile_is_rejected_not_a_divide_by_zero() {
        let spec = ProblemSpec::cube(8, 2);
        let mut params = TuningParams::seed(&spec).without_overlap();
        params.t = 0;
        let errs = mpisim::run(spec.p, move |comm| {
            let input = local_test_slab(&spec, comm.rank());
            try_fft3_dist(
                &comm,
                spec,
                Variant::New,
                params,
                Direction::Forward,
                Rigor::Estimate,
                &input,
            )
            .map(|_| ())
        });
        for e in errs {
            let err = e.unwrap_err();
            assert!(matches!(err, Error::InfeasibleParams(_)), "{err}");
        }
    }

    #[test]
    #[should_panic(expected = "infeasible parameters")]
    fn legacy_entry_point_still_panics_on_infeasible_parameters() {
        // The panicking API keeps its historical message so existing
        // callers that match on it are unaffected by the `try_` refactor.
        let spec = ProblemSpec::cube(8, 2);
        let mut params = TuningParams::seed(&spec);
        params.w = 99;
        mpisim::run(spec.p, move |comm| {
            let input = local_test_slab(&spec, comm.rank());
            fft3_dist(
                &comm,
                spec,
                Variant::New,
                params,
                Direction::Forward,
                Rigor::Estimate,
                &input,
            );
        });
    }

    #[test]
    fn session_repeats_are_exact_with_zero_setup_after_the_first() {
        // The setup-once / execute-many contract end to end: a session's
        // first execution initialises one persistent plan per tile; every
        // later execution reuses them (zero planning, zero exchange setups)
        // and still matches the serial reference exactly.
        let spec = ProblemSpec::cube(16, 4);
        let params = TuningParams::seed(&spec);
        let dir = Direction::Forward;
        let mut reference = full_test_array(spec.nx, spec.ny, spec.nz);
        fft3_serial(&mut reference, spec.nx, spec.ny, spec.nz, dir);
        let reference = std::sync::Arc::new(reference);
        let k = params.tiles(&spec) as u64;

        let results = mpisim::run(spec.p, move |comm| {
            let input = local_test_slab(&spec, comm.rank());
            let mut session =
                FftSession::new(&comm, spec, Variant::New, params, dir, Rigor::Estimate);
            let mut per_exec = Vec::new();
            for _ in 0..3 {
                let out = session.execute(&input).expect("clean run");
                let err = compare_with_serial(&spec, comm.rank(), &out, &reference);
                per_exec.push((out.exchange_setups, out.planning, err));
            }
            assert_eq!(session.executions(), 3);
            assert_eq!(session.live_plans(), k as usize);
            session.free();
            per_exec
        });
        let scale = (spec.len() as f64).max(1.0);
        for (rank, execs) in results.iter().enumerate() {
            let (first_setups, _, _) = execs[0];
            assert_eq!(
                first_setups, k,
                "rank {rank}: first execution sets up per tile"
            );
            for (i, &(setups, planning, err)) in execs.iter().enumerate() {
                assert!(err < 1e-9 * scale, "rank {rank} exec {i}: err {err}");
                if i > 0 {
                    assert_eq!(setups, 0, "rank {rank} exec {i}: steady state");
                    assert_eq!(planning, Duration::ZERO, "rank {rank} exec {i}");
                }
            }
        }
    }

    fn bits(data: &[Complex64]) -> Vec<(u64, u64)> {
        data.iter()
            .map(|c| (c.re.to_bits(), c.im.to_bits()))
            .collect()
    }

    /// Executions 2 and 3 of a session run on a reused workspace; neither
    /// may differ by a bit from a one-shot call on fresh memory.
    fn check_session_repeats_match_fresh(
        spec: ProblemSpec,
        variant: Variant,
        params: TuningParams,
        dir: Direction,
    ) {
        mpisim::run(spec.p, move |comm| {
            let input = local_test_slab(&spec, comm.rank());
            let fresh = try_fft3_dist(&comm, spec, variant, params, dir, Rigor::Estimate, &input)
                .expect("clean run");
            let mut session = FftSession::new(&comm, spec, variant, params, dir, Rigor::Estimate);
            for exec in 1..=3 {
                let out = session.execute(&input).expect("clean run");
                assert_eq!(out.layout, fresh.layout);
                assert!(
                    bits(&out.data) == bits(&fresh.data),
                    "rank {} execution {exec} differs ({spec:?}, {variant:?})",
                    comm.rank()
                );
            }
            session.free();
        });
    }

    #[test]
    fn session_repeats_are_bit_identical_to_a_fresh_call_on_every_path() {
        let cube = ProblemSpec::cube(16, 4);
        let seed = TuningParams::seed(&cube);
        let fwd = Direction::Forward;
        // Cube → fast transpose; TH → naive; FFTW-style → one blocking tile.
        check_session_repeats_match_fresh(cube, Variant::New, seed, fwd);
        check_session_repeats_match_fresh(cube, Variant::Th, seed, fwd);
        check_session_repeats_match_fresh(cube, Variant::Fftw, seed, fwd);
        check_session_repeats_match_fresh(cube, Variant::New, seed, Direction::Backward);
        let two_threads = TuningParams { threads: 2, ..seed };
        check_session_repeats_match_fresh(cube, Variant::New, two_threads, fwd);
        // Nx ≠ Ny → generic transpose, with Nx mod p ≠ 0 and a ragged last
        // tile; at two threads the planes split 2 + 1 on the wide ranks.
        let ragged = ProblemSpec {
            nx: 10,
            ny: 9,
            nz: 7,
            p: 4,
        };
        let params = TuningParams {
            t: 3,
            w: 2,
            px: 2,
            pz: 2,
            uy: 2,
            uz: 2,
            fy: 1,
            fp: 1,
            fu: 1,
            fx: 1,
            threads: 1,
        };
        check_session_repeats_match_fresh(ragged, Variant::New, params, fwd);
        let two_threads = TuningParams {
            threads: 2,
            ..params
        };
        check_session_repeats_match_fresh(ragged, Variant::New, two_threads, fwd);
    }

    #[test]
    fn a_session_carries_nothing_from_one_input_to_the_next() {
        // A then B on one session must equal B on a fresh session.
        for spec in [
            ProblemSpec::cube(16, 4),
            ProblemSpec {
                nx: 12,
                ny: 8,
                nz: 10,
                p: 4,
            },
        ] {
            let params = TuningParams::seed(&spec);
            mpisim::run(spec.p, move |comm| {
                let a = local_test_slab(&spec, comm.rank());
                let b: Vec<Complex64> = a
                    .iter()
                    .rev()
                    .map(|c| Complex64::new(c.im - 0.25, 3.0 * c.re))
                    .collect();
                let session = || {
                    FftSession::new(
                        &comm,
                        spec,
                        Variant::New,
                        params,
                        Direction::Forward,
                        Rigor::Estimate,
                    )
                };
                let mut used = session();
                used.execute(&a).expect("clean run");
                let after_a = used.execute(&b).expect("clean run");
                let mut fresh = session();
                let alone = fresh.execute(&b).expect("clean run");
                assert!(bits(&after_a.data) == bits(&alone.data), "{spec:?}");
                used.free();
                fresh.free();
            });
        }
    }

    #[test]
    fn session_pools_receive_staging_and_idle_plans_hold_none() {
        use crate::pencil::{pencil_test_input, PencilGrid, PencilSession};
        let spec = ProblemSpec::cube(16, 2);
        let params = TuningParams {
            t: 2,
            ..TuningParams::seed(&spec)
        };
        assert!(
            params.tiles(&spec) > params.w + 1,
            "more plans than buffers"
        );
        // After three executions: every plan idle and empty-handed, at most
        // `W + 1` pooled blocks, none larger than the largest tile's.
        let check = move |plans: &[&TilePlans], staging: &Staging, tile_recv: usize| {
            for stage in plans {
                assert_eq!(stage.idle_staging(), 0, "an idle plan holds staging");
            }
            let (buffers, capacity) = staging.pooled();
            assert!(buffers <= params.w + 1, "{buffers} buffers");
            assert!(
                capacity <= (params.w + 1) * tile_recv,
                "{capacity} elements"
            );
        };
        mpisim::run(spec.p, move |comm| {
            let input = local_test_slab(&spec, comm.rank());
            let mut session = FftSession::new(
                &comm,
                spec,
                Variant::New,
                params,
                Direction::Forward,
                Rigor::Estimate,
            );
            for _ in 0..3 {
                session.execute(&input).expect("clean run");
            }
            assert_eq!(session.live_plans(), params.tiles(&spec));
            let tile_recv = params.t * spec.nx * (spec.ny / spec.p);
            check(&[&session.plans], &session.staging, tile_recv);
            session.free();

            // The pencil session, both stages through the same staging: 8
            // row tiles of 2·16·8 and 4 column tiles of 16·16·2 elements.
            let grid = PencilGrid { pr: 1, pc: 2 };
            let input = pencil_test_input(&spec, grid, comm.rank());
            let mut session = PencilSession::new(&comm, spec, grid, params, Direction::Forward)
                .expect("session setup");
            for _ in 0..3 {
                session.execute(&input).expect("clean run");
            }
            let (plans, staging) = session.transport_state();
            assert_eq!(plans[0].live() + plans[1].live(), 8 + 4);
            check(&[&plans[0], &plans[1]], staging, 16 * 16 * 2);
            assert_eq!(session.free(), 8 + 4);
        });
    }

    #[test]
    fn memory_bitflip_on_a_reused_workspace_is_detected_and_healed() {
        // The fault plan flips a staged bit at the victim's tile 1 on every
        // execution; from the second one on, the staging buffer, the slab
        // it is re-packed from and the receive pool are all reused memory.
        let spec = ProblemSpec::cube(8, 2);
        let params = TuningParams::seed(&spec);
        let dir = Direction::Forward;
        let mut reference = full_test_array(spec.nx, spec.ny, spec.nz);
        fft3_serial(&mut reference, spec.nx, spec.ny, spec.nz, dir);
        let reference = std::sync::Arc::new(reference);
        let victim = 0;
        let faults = faultplan::FaultPlan::seeded(0x5eed).with_memory_bitflip(victim, 1);
        mpisim::run_with_faults(spec.p, faults, move |comm| {
            let input = local_test_slab(&spec, comm.rank());
            let mut session =
                FftSession::new(&comm, spec, Variant::New, params, dir, Rigor::Estimate);
            for exec in 1..=3 {
                let out = session
                    .execute(&input)
                    .expect("a detected pack corruption heals in place");
                let err = compare_with_serial(&spec, comm.rank(), &out, &reference);
                assert!(
                    err < 1e-9 * spec.len() as f64,
                    "execution {exec}: err {err}"
                );
                let healed = out.recovery.corruptions_healed;
                if comm.rank() == victim {
                    assert!(healed >= 1, "execution {exec}: victim heals");
                } else {
                    assert_eq!(healed, 0, "execution {exec}");
                }
            }
            session.free();
        });
    }

    #[test]
    fn abft_sum_and_tolerance_flag_corruption_but_not_roundoff() {
        let n = 8;
        let rows = 3;
        let data: Vec<Complex64> = (0..rows * n)
            .map(|i| crate::serial::test_field(i % 5, i % 3, i))
            .collect();
        let starts: Vec<usize> = (0..rows).map(|r| r * n).collect();
        let mut line = Vec::new();
        abft_sum_rows(&mut line, &data, &starts, n);
        let post = line.clone();
        assert!(abft_agrees(&line, &post, rows));
        // Roundoff-scale deviation (what an honest FFT accumulates) is
        // tolerated…
        let mut drift = line.clone();
        drift[2].re += 1e-14;
        assert!(abft_agrees(&line, &drift, rows));
        // …corruption-scale deviation is not.
        let mut corrupt = line.clone();
        corrupt[2].re += 1e-3;
        assert!(!abft_agrees(&line, &corrupt, rows));
    }

    /// The staging-buffer hash catches an injected memory bit-flip between
    /// pack and post, and the retransmit rung re-packs from the pristine
    /// transform state — the run completes with the correct answer and the
    /// victim reports the heal.
    #[test]
    fn memory_bitflip_is_detected_and_healed_by_retransmit() {
        let spec = ProblemSpec::cube(8, 2);
        let params = TuningParams::seed(&spec);
        let dir = Direction::Forward;
        let mut reference = full_test_array(spec.nx, spec.ny, spec.nz);
        fft3_serial(&mut reference, spec.nx, spec.ny, spec.nz, dir);
        let reference = std::sync::Arc::new(reference);
        let victim = 1;
        let faults = faultplan::FaultPlan::seeded(0xb17).with_memory_bitflip(victim, 0);
        let results = mpisim::run_with_faults(spec.p, faults, move |comm| {
            let input = local_test_slab(&spec, comm.rank());
            let out = try_fft3_dist_traced(
                &comm,
                spec,
                Variant::New,
                params,
                dir,
                Rigor::Estimate,
                &input,
                &Resilience::default(),
                &mut NoopRecorder,
            )
            .expect("a detected pack corruption heals in place");
            let err = compare_with_serial(&spec, comm.rank(), &out, &reference);
            (err, out.recovery.corruptions_healed, out.recovery.actions)
        });
        let tol = 1e-9 * spec.len() as f64;
        for (rank, (err, healed, actions)) in results.into_iter().enumerate() {
            assert!(err < tol, "rank {rank}: err {err}");
            if rank == victim {
                assert!(healed >= 1, "victim heals its corruption");
                assert!(actions.contains(&DegradeAction::Retransmit));
            } else {
                assert_eq!(healed, 0, "rank {rank} saw no corruption");
            }
        }
    }

    #[test]
    fn session_checkpoints_on_the_configured_cadence() {
        let spec = ProblemSpec::cube(8, 2);
        let params = TuningParams::seed(&spec);
        mpisim::run(spec.p, move |comm| {
            let input = local_test_slab(&spec, comm.rank());
            let mut session = FftSession::new(
                &comm,
                spec,
                Variant::New,
                params,
                Direction::Forward,
                Rigor::Estimate,
            )
            .checkpoint_every(2);
            assert!(session.checkpoint().is_none(), "nothing captured yet");
            for exec in 1..=4u64 {
                session.execute(&input).expect("clean run");
                // Captures on executions 1 and 3: generation = execution.
                let expect_gen = if exec >= 3 { 3 } else { 1 };
                let ckpt = session.checkpoint().expect("captured");
                assert_eq!(ckpt.generation(), expect_gen, "after exec {exec}");
            }
            // The capture is usable: the source serves this rank's input
            // back while the membership is intact.
            let ckpt = session.checkpoint().expect("captured");
            assert_eq!(ckpt.memory_elements(), input.len() + ckpt.parity_elements());
            session.free();
        });
    }

    #[test]
    fn one_shot_calls_keep_paying_setup_per_tile() {
        // Contrast case for the session test above: fft3_dist's ad-hoc
        // exchanges negotiate a schedule on every post, every call.
        let spec = ProblemSpec::cube(8, 2);
        let params = TuningParams::seed(&spec);
        let k = params.tiles(&spec) as u64;
        let setups = mpisim::run(spec.p, move |comm| {
            let input = local_test_slab(&spec, comm.rank());
            let a = fft3_dist(
                &comm,
                spec,
                Variant::New,
                params,
                Direction::Forward,
                Rigor::Estimate,
                &input,
            );
            let b = fft3_dist(
                &comm,
                spec,
                Variant::New,
                params,
                Direction::Forward,
                Rigor::Estimate,
                &input,
            );
            (a.exchange_setups, b.exchange_setups)
        });
        for (a, b) in setups {
            assert_eq!(a, k);
            assert_eq!(b, k, "ad-hoc path re-negotiates every call");
        }
    }
}
