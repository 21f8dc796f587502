//! The slab transform's front: the distributed 3-D FFT on actual data over
//! the [`mpisim`] runtime, with [`cfft`] kernels.
//!
//! This backend exists to prove the *algorithm* correct — every variant
//! (NEW, NEW-0, TH, FFTW-style) must reproduce the serial reference
//! transform bit-for-bit (up to floating-point tolerance) for any problem
//! shape, divisible or not. The performance story is told by the simulated
//! backend; here the timings are real wall-clock and only meaningful for
//! laptop-scale smoke benchmarks.
//!
//! Entry point: [`FftSession`] (setup once, execute many; a one-shot
//! transform is a session executed once — [`try_fft3_dist`] and
//! [`try_fft3_dist_traced`] are that, kept as shims for `fftperf/`). What
//! this module keeps is what only the slab has: the
//! upfront plane-wise FFTz+Transpose in its three styles and the slab's
//! stage shape `{τ = z, o = x_l, v = y; FFTy → FFTx}` with every integrity
//! stage armed, both pinned once by the session's constructor from
//! `Variant::resolve` — the same resolution the simulator prices. The
//! shape runs on `crate::executor`, the one real
//! [`crate::pipeline::OverlapEnv`], which the pencil transform's two stages
//! run on as well.

#![cfg_attr(not(test), deny(clippy::expect_used))]

use crate::breakdown::{RunStats, StepTimes};
use crate::decomp::Decomp;
use crate::error::{Error, IntegrityStage};
use crate::executor::{Axis, Fft, Local, Session, StageComm, StageShape, Workspace};
use crate::params::{ProblemSpec, TuningParams};
use crate::pipeline::{Recovery, Resilience};
use crate::serial::{block, test_field};
use crate::trace::{EventKind, NoopRecorder, Recorder};
use crate::transport::Transport;
use cfft::batch::{execute_batch, fork_join, BatchLayout, BatchScratch};
use cfft::planner::{Plan1d, Rigor};
use cfft::{Complex64, Direction, PlanCache};
use mpisim::Comm;
use simnet::model::TransposeCost;
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

/// Tile edge of the blocked plane transpose (every tier but
/// [`TransposeCost::Naive`], TH's unblocked loop nest).
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
    /// Exchange schedule setups this call performed: one per
    /// persistent-plan init. A session sets its per-tile plans up lazily on
    /// the first execution, so a one-shot call (a session of one execution)
    /// reports one per tile and every [`FftSession`] execution after the
    /// first exactly zero — the setup-once / execute-many steady state.
    pub exchange_setups: u64,
}

/// One worker's share of [`FftzTranspose::run`]: its number, its parts of
/// the stage buffer, its plane scratch and its `(fftz, transpose)` slot.
type Task<'a> = (
    usize,
    Vec<&'a mut [Complex64]>,
    &'a mut [Complex64],
    &'a mut (Duration, Duration),
);

/// The slab's local phase: FFTz and Transpose of the caller's slab (x-y-z)
/// into the stage's source buffer, z-x-y (standard) or x-z-y (fast).
struct FftzTranspose {
    plan_z: Arc<Plan1d>,
    style: TransposeCost,
    nxl: usize,
    ny: usize,
    nz: usize,
    threads: usize,
}

impl FftzTranspose {
    fn run(
        &self,
        input: &[Complex64],
        zxy: &mut [Complex64],
        ws: &mut Workspace,
        net: &mut Transport<'_>,
        steps: &mut StepTimes,
    ) {
        // One x-plane at a time, straight from the caller's slab: copy the
        // plane (Ny·Nz — cache-resident) into scratch, FFTz its Ny lines
        // there, and write it transposed to its place in `zxy`. The slab is
        // read once and written once; `threads > 1` splits the planes across
        // workers, each with a plane scratch of its own.
        let (nxl, ny, nz) = (self.nxl, self.ny, self.nz);
        let plane_len = ny * nz;
        let t0 = Instant::now();
        let mut spent = (Duration::ZERO, Duration::ZERO);
        if nxl * plane_len > 0 {
            let per = nxl.div_ceil(self.threads.clamp(1, nxl));
            let (plan_z, style) = (&*self.plan_z, self.style);
            ws.planes
                .resize(nxl.div_ceil(per) * plane_len, Complex64::ZERO);
            // Worker `w` owns planes `w·per..`, and with them these parts of
            // `zxy` — x-z-y: its planes, one contiguous run; z-x-y: for each
            // `z`, its planes' `Ny`-rows.
            let mut dsts: Vec<Vec<&mut [Complex64]>> = Vec::new();
            if style == TransposeCost::Fast {
                dsts.extend(zxy.chunks_mut(per * plane_len).map(|run| vec![run]));
            } else {
                dsts.resize_with(nxl.div_ceil(per), || Vec::with_capacity(nz));
                for z_rows in zxy.chunks_mut(nxl * ny) {
                    for (dst, rows) in dsts.iter_mut().zip(z_rows.chunks_mut(per * ny)) {
                        dst.push(rows);
                    }
                }
            }
            // Each worker adds its `(fftz, transpose)` time to a slot of its
            // own.
            let mut shares = vec![(Duration::ZERO, Duration::ZERO); dsts.len()];
            let work = |(w, mut dst, plane, spent): Task<'_>, scratch: &mut BatchScratch| {
                let block = match style {
                    TransposeCost::Naive => ny.max(nz),
                    _ => TRANSPOSE_BLOCK,
                };
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
                                    TransposeCost::Fast => &mut dst[0][(xi * nz + z) * ny..],
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
            };
            let tasks = (0..)
                .zip(dsts)
                .zip(ws.planes.chunks_mut(plane_len).zip(&mut shares))
                .map(|((w, dst), (plane, spent))| (w, dst, plane, spent));
            let scratch = &mut ws.scratch;
            fork_join(
                tasks.collect(),
                |task| work(task, scratch),
                |task| work(task, &mut BatchScratch::for_plan(plan_z)),
            );
            for (fz, tr) in shares {
                spent = (spent.0 + fz, spent.1 + tr);
            }
        }
        // The two steps interleave plane by plane (and run concurrently
        // across workers), so each gets its measured share of the interval.
        let t1 = Instant::now();
        let share =
            spent.0.as_secs_f64() / (spent.0 + spent.1).as_secs_f64().max(f64::MIN_POSITIVE);
        let mid = t0 + (t1 - t0).mul_f64(share);
        steps.fftz += (mid - t0).as_secs_f64();
        net.span(t0, mid, EventKind::Fftz);
        steps.transpose += (t1 - mid).as_secs_f64();
        net.span(mid, t1, EventKind::Transpose);
    }
}

/// **Shim for `fftperf/`**, which a code PR may not edit: one
/// [`FftSession`] executed once with the default [`Resilience`] and tracing
/// off. Goes, with [`try_fft3_dist_traced`], once the benchmark's
/// `slab64_tiles` workload builds its own session (ROADMAP item 3).
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

/// **Shim for `fftperf/`** (see [`try_fft3_dist`]): one [`FftSession`]
/// executed once through [`FftSession::execute_traced`], its reported
/// elapsed time covering the session's set-up too. Goes with it.
#[expect(clippy::too_many_arguments, reason = "fftperf calls this signature")]
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
    let started = Instant::now();
    let mut session = FftSession::new(comm, spec, variant, params, dir, rigor);
    let mut out = session.execute_traced(input, resilience, recorder)?;
    out.stats.elapsed = started.elapsed().as_secs_f64();
    Ok(out)
}

/// Pins the slab transform of `spec` on this rank: the session over its one
/// stage, the output layout, and the planning time the pinning incurred.
fn pin_slab<'a>(
    comm: &'a Comm,
    spec: ProblemSpec,
    variant: Variant,
    params: TuningParams,
    dir: Direction,
) -> Result<(Session<'a>, OutLayout, Duration), Error> {
    variant.check(&spec, &params)?;
    let (params, transpose) = variant.resolve(&spec, params);
    let (nx, ny, nz) = (spec.nx, spec.ny, spec.nz);
    let rank = comm.rank();
    let decomp = Decomp::new(nx, ny, spec.p);
    let (nxl, nyl) = (decomp.x.count(rank), decomp.y.count(rank));

    // Draw plans from the process-wide cache: any geometry this process has
    // transformed before costs zero planning here, and when all `p` rank
    // threads arrive at once only one of them plans.
    let cache = PlanCache::global();
    let (plan_z, spent_z) = cache.plan_timed(nz, dir, Rigor::Estimate);
    let (plan_y, spent_y) = cache.plan_timed(ny, dir, Rigor::Estimate);
    let (plan_x, spent_x) = cache.plan_timed(nx, dir, Rigor::Estimate);

    // The one stage: z tiled, the y of every (z, x_l) line split across
    // the ranks, x completed — lines where the transpose style put them,
    // and where the output layout wants them.
    let (src, dst, layout) = match transpose {
        TransposeCost::Fast => ((ny, nz * ny), (nx, nz * nx), OutLayout::Yzx),
        _ => ((nxl * ny, ny), (nyl * nx, nx), OutLayout::Zyx),
    };
    let shape = StageShape {
        n_tau: nz,
        t: params.t,
        n_v: ny,
        v: decomp.y,
        o: decomp.x,
        me: rank,
        src,
        dst,
        pre: Some(Fft {
            plan: plan_y,
            axis: Axis::Y,
            abft: Some(IntegrityStage::Ffty),
        }),
        post: Fft {
            plan: plan_x,
            axis: Axis::X,
            abft: Some(IntegrityStage::Fftx),
        },
        polls: [params.fy, params.fp, params.fu, params.fx],
        pack_sub: (params.pz, params.px),
        unpack_sub: (params.uz, params.uy),
        seal: true,
        w: params.w,
        threads: params.threads,
    };
    let fftz_transpose = FftzTranspose {
        plan_z,
        style: transpose,
        nxl,
        ny,
        nz,
        threads: params.threads,
    };
    let local: Local =
        Box::new(move |input, zxy, ws, net, steps| fftz_transpose.run(input, zxy, ws, net, steps));
    let stage = (StageComm::Borrowed(comm), shape);
    let session = Session::new(vec![stage], variant == Variant::Th, local);
    Ok((session, layout, spent_z + spent_y + spent_x))
}

/// Setup-once / execute-many handle for a repeated distributed transform.
///
/// A session pins `(comm, spec, variant, params, dir)`: its
/// constructor resolves the variant, draws the FFT plans and fixes the
/// stage's geometry once, and it owns one persistent all-to-all plan per
/// communication tile plus the pipeline's working memory (transposed slab,
/// scratch, and a pool of `(W + 1) · p` exchange blocks: Pack fills them,
/// the exchange moves them to the peers by ownership, and the blocks that
/// arrive return to the pool once unpacked). The first
/// [`FftSession::execute`] initialises
/// each tile's plan as it is first posted; every execution after that does
/// **zero planning and zero exchange setup** — [`RunOutput::planning`] is
/// [`Duration::ZERO`] and [`RunOutput::exchange_setups`] is `0` — and
/// allocates nothing slab-sized but the output it returns. Dropping the
/// session frees every plan (so no MC006 lint fires); [`FftSession::free`]
/// does the same explicitly. The one-shot entry points are a session
/// executed once.
pub struct FftSession<'a> {
    comm: &'a Comm,
    spec: ProblemSpec,
    /// The transform: stages, plans and memory (`crate::executor`).
    core: Session<'a>,
    layout: OutLayout,
    /// Planning the constructor incurred; the first execution reports it.
    planning: Duration,
    checkpoint_interval: Option<u64>,
    checkpoint: Option<crate::recover::Checkpoint>,
}

impl<'a> FftSession<'a> {
    /// Creates a session: validates and resolves the parameters, plans the
    /// FFT kernels (unless already cached) and pins the stage. Infeasible
    /// parameters do not fail here — every execution returns them as
    /// [`Error::InfeasibleParams`], and a communicator whose size is not
    /// `spec.p` as [`Error::GridMismatch`] (the `size × 1` grid, as
    /// [`crate::PencilSession::new`] reports it). The exchange plans are
    /// initialised lazily during the first execution, so the
    /// first/steady-state split is observable per execution via
    /// [`RunOutput::exchange_setups`]. [`Rigor::Estimate`], the one rigor,
    /// is an argument only because `fftperf/` passes it.
    pub fn new(
        comm: &'a Comm,
        spec: ProblemSpec,
        variant: Variant,
        params: TuningParams,
        dir: Direction,
        _: Rigor,
    ) -> Self {
        // Every rank sees the same size, so every rank refuses alike.
        let pinned = if comm.size() == spec.p {
            pin_slab(comm, spec, variant, params, dir)
        } else {
            Err(Error::GridMismatch {
                pr: comm.size(),
                pc: 1,
                expected: spec.p,
            })
        };
        let (core, layout, planning) =
            pinned.unwrap_or_else(|e| (Session::refused(e), OutLayout::Zyx, Duration::ZERO));
        FftSession {
            comm,
            spec,
            core,
            layout,
            planning,
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
        // A session refused for its communicator's size captures nothing:
        // the checkpoint's exchange assumes `spec.p` ranks.
        let sized = self.comm.size() == self.spec.p;
        self.checkpoint_interval = (k > 0 && sized).then_some(k);
        self
    }

    /// The most recent periodic checkpoint, when
    /// [`FftSession::checkpoint_every`] is active and at least one
    /// execution has run.
    pub fn checkpoint(&self) -> Option<&crate::recover::Checkpoint> {
        self.checkpoint.as_ref()
    }

    /// Executes the transform once over this rank's `input` x-slab —
    /// `x-y-z` layout, `count_x(rank)·ny·nz` elements — reusing the
    /// session's persistent exchange plans, with the default [`Resilience`]
    /// (watchdog disabled) and tracing off. Returns this rank's y-slab of
    /// the result plus statistics. Collective: every rank's session must
    /// execute in the same order.
    pub fn execute(&mut self, input: &[Complex64]) -> Result<RunOutput, Error> {
        self.execute_traced(input, &Resilience::default(), &mut NoopRecorder)
    }

    /// [`Self::execute`] with full control: every phase span, poll and wait
    /// on this rank is appended to `recorder` (see [`crate::trace`]; a
    /// [`NoopRecorder`] turns tracing off), under an explicit [`Resilience`]
    /// policy. With `stall_timeout` set, a stalled exchange trips the
    /// watchdog and the pipeline climbs the degradation ladder (boost polls
    /// → shrink window → blocking fallback) before giving up as
    /// [`Error::Stalled`]; what it did is reported in
    /// [`RunOutput::recovery`]. On the error path every in-flight exchange
    /// is cancelled before returning — no staged messages leak.
    pub fn execute_traced(
        &mut self,
        input: &[Complex64],
        resilience: &Resilience,
        recorder: &mut dyn Recorder,
    ) -> Result<RunOutput, Error> {
        let execution = self.core.executions() + 1;
        if let Some(k) = self.checkpoint_interval {
            if (execution - 1) % k == 0 {
                self.checkpoint = Some(crate::recover::Checkpoint::capture_tagged(
                    self.comm, &self.spec, input, execution,
                ));
            }
        }
        let started = Instant::now();
        let ran = self.core.execute(input, resilience, recorder)?;
        Ok(RunOutput {
            data: ran.data,
            layout: self.layout,
            stats: RunStats {
                steps: ran.steps,
                elapsed: started.elapsed().as_secs_f64(),
                tests: ran.tests,
            },
            recovery: ran.recovery,
            planning: std::mem::take(&mut self.planning),
            exchange_setups: ran.setups,
        })
    }

    /// Executions attempted over this session's lifetime: one per call of
    /// [`Self::execute`] or [`Self::execute_traced`], whether or not it
    /// succeeded ([`crate::PencilSession::executions`] counts the same way).
    pub fn executions(&self) -> u64 {
        self.core.executions()
    }

    /// Live per-tile persistent plans (tiles not yet posted, or freed by a
    /// fault path, have none).
    pub fn live_plans(&self) -> usize {
        self.core.live_plans()
    }

    /// Releases every persistent plan. Equivalent to dropping the session,
    /// but explicit at call sites that want the free visible.
    pub fn free(self) {}
}

/// Builds this rank's x-slab of the deterministic test field.
pub fn local_test_slab(spec: &ProblemSpec, rank: usize) -> Vec<Complex64> {
    let xs = Decomp::new(spec.nx, spec.ny, spec.p).x.range(rank);
    block(xs, 0..spec.ny, spec.nz, test_field)
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
    use crate::trace::DegradeAction;
    use crate::transport::{Staging, TilePlans};

    fn check_variant(spec: ProblemSpec, variant: Variant, params: TuningParams, dir: Direction) {
        let mut reference = full_test_array(spec.nx, spec.ny, spec.nz);
        fft3_serial(&mut reference, spec.nx, spec.ny, spec.nz, dir);
        let reference = std::sync::Arc::new(reference);

        let errs = mpisim::run(spec.p, move |comm| {
            let input = local_test_slab(&spec, comm.rank());
            let mut session = FftSession::new(&comm, spec, variant, params, dir, Rigor::Estimate);
            let out = session.execute(&input).expect("clean run");
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
    fn session_pools_blocks_and_idle_plans_hold_none() {
        use crate::pencil::{pencil_test_input, PencilGrid, PencilSession};
        let spec = ProblemSpec::cube(16, 2);
        let params = TuningParams {
            t: 2,
            ..TuningParams::seed(&spec)
        };
        assert!(
            params.tiles(&spec) > params.w + 1,
            "more plans than tiles in the window"
        );
        // After each execution: every plan idle and empty-handed, and the
        // pool within its bound — the `(W + 1)·group` blocks of the stage
        // with the most, none of more capacity than the largest block.
        // Returns the blocks created so far.
        fn inspect(
            (plans, staging): (Vec<&TilePlans>, &Staging),
            bound: usize,
            most: usize,
        ) -> u64 {
            for stage in plans {
                assert_eq!(stage.idle_blocks(), 0, "an idle plan holds blocks");
            }
            let ((blocks, capacity), (created, pool_bound)) =
                (staging.pooled(), staging.created_and_bound());
            assert_eq!(pool_bound, bound);
            assert!(blocks <= most, "{blocks} blocks");
            assert!(capacity <= bound, "{capacity} elements, bound {bound}");
            created
        }
        // From the second execution on no block is created: the pool holds
        // every block the first one made.
        fn steady(created: &[u64]) {
            assert!(created[0] > 0);
            assert!(created.iter().all(|&c| c == created[0]), "{created:?}");
        }
        let most = (params.w + 1) * spec.p;
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
            // A full tile sends each of the two ranks `T·(nx/p)·(ny/p)`
            // elements.
            let bound = most * params.t * (spec.nx / spec.p) * (spec.ny / spec.p);
            let created: Vec<u64> = (0..3)
                .map(|_| {
                    session.execute(&input).expect("clean run");
                    inspect(session.core.transport_state(), bound, most)
                })
                .collect();
            steady(&created);
            assert_eq!(session.live_plans(), params.tiles(&spec));
            session.free();

            // The pencil session, both stages through the one pool: 8 row
            // tiles over the two ranks, blocks of 2·16·8 / 2 elements, and 4
            // column tiles over one, a block of 16·16·2 elements.
            let grid = PencilGrid { pr: 1, pc: 2 };
            let input = pencil_test_input(&spec, grid, comm.rank());
            let mut session = PencilSession::new(&comm, spec, grid, params, Direction::Forward)
                .expect("session setup");
            let created: Vec<u64> = (0..3)
                .map(|_| {
                    session.execute(&input).expect("clean run");
                    inspect(session.transport_state(), most * 16 * 16 * 2, most)
                })
                .collect();
            steady(&created);
            // The column stage reuses the row stage's blocks: no more are
            // made than the row stage's window needs.
            assert_eq!(created[0] as usize, most);
            let (plans, _) = session.transport_state();
            assert_eq!(plans[0].live() + plans[1].live(), 8 + 4);
            assert_eq!(session.free(), 8 + 4);
        });
    }

    #[test]
    fn memory_bitflip_on_a_reused_workspace_is_detected_and_healed() {
        // The fault plan flips a staged bit at the victim's tile 1 on every
        // execution; from the second one on, the staged blocks (recycled
        // from the peers' allocations) and the slab they are re-packed from
        // are all reused memory.
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
        // Contrast case for the session test above: a one-shot call is a
        // session of one execution, so every call sets its plans up anew.
        let spec = ProblemSpec::cube(8, 2);
        let params = TuningParams::seed(&spec);
        let k = params.tiles(&spec) as u64;
        let setups = mpisim::run(spec.p, move |comm| {
            let input = local_test_slab(&spec, comm.rank());
            let (new, fwd, rigor) = (Variant::New, Direction::Forward, Rigor::Estimate);
            let once = || {
                let mut session = FftSession::new(&comm, spec, new, params, fwd, rigor);
                session.execute(&input).expect("clean run").exchange_setups
            };
            (once(), once())
        });
        for (a, b) in setups {
            assert_eq!(a, k);
            assert_eq!(b, k, "a one-shot call re-negotiates every call");
        }
    }
}
