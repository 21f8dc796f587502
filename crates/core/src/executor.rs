//! The real stage executor: the one [`OverlapEnv`] over real data.
//!
//! A distributed transform is a sequence of exchange stages (Dalcin,
//! Mortensen & Keyes; `crate::stage` prices them the same way): local FFTs
//! along the complete axes, then a redistribution inside a subgroup. Every
//! stage has the same program with different numbers, and [`StageShape`] is
//! those numbers. A stage tiles one axis **τ**, splits its contiguous axis
//! **v** across the group and completes the carried axis **o**:
//!
//! ```text
//! source line (τ, o), length n_v      at  τ·src.0 + o·src.1
//! message to peer q                       [τ_local][o][v_q]
//! block from source s                     [τ_local][o_s][w]      (w: my share of v)
//! destination line (τ, w), length Σo  at  τ·dst.0 + w·dst.1
//! ```
//!
//! so `send[q] = t·n_o·|v_q|` and `recv[s] = t·|o_s|·n_w`. The slab
//! transform is one such stage over all `p` ranks (`crate::real_env` builds
//! its shape), the pencil transform two, over the grid's rows and then its
//! columns (`crate::pencil`); DESIGN.md §18 has the table.
//!
//! [`StageExec`] runs one shape under [`crate::pipeline`]'s drivers and owns
//! what is written once: Pack; the block io of both FFT steps ([`StageIo`]),
//! whose gather for the post-FFT reads the receive block — Unpack is that
//! gather, not a sweep of its own — and which takes the ABFT checksum lines
//! on the cache-resident block where the shape arms them; the sub-tile loops
//! with their poll schedules; the pack seal with its retransmit, and the
//! fault plan's trigger points. Every tile moves through `crate::transport`.
//!
//! [`Session`] owns a real transform: its stages' communicators, the stage
//! list pinned once at construction (shapes, tile counts, the local phase),
//! the per-tile persistent plans, the staging, the kept stage buffer and the
//! compute scratch, one [`Session::execute`], and the only `Drop` in the
//! crate that frees plans. [`crate::FftSession`] and
//! [`crate::PencilSession`] are constructors of it; a one-shot call is a
//! session executed once (DESIGN.md §15).

#![cfg_attr(not(test), deny(clippy::cast_possible_truncation))]

use crate::breakdown::StepTimes;
use crate::decomp::AxisSplit;
use crate::error::{Error, IntegrityStage};
use crate::pipeline::{
    block_on, try_run_new, try_run_th, OverlapEnv, Recovery, Resilience, POLL_BOOST,
};
use crate::trace::{DegradeAction, EventKind, Recorder};
use crate::transport::{PollSchedule, Req, Staging, TileExchange, TilePlans, Transport};
use cfft::batch::{
    execute_batch, for_each_part_threaded, fork_join, run_blocks, split_rows, BatchLayout,
    BatchScratch, Block, BlockIo, InPlace, RowRun, MAX_BLOCK,
};
use cfft::planner::Plan1d;
use cfft::Complex64;
use faultplan::{checksum, flip_seeded_bit};
use mpisim::Comm;
use std::ops::{Deref, Range};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The axis an FFT step transforms, which names its Figure-8 category and
/// its trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Axis {
    Z,
    Y,
    X,
}

impl Axis {
    fn event(self, tile: usize, subtile: usize) -> EventKind {
        match self {
            Axis::Z => EventKind::Fftz,
            Axis::Y => EventKind::Ffty { tile, subtile },
            Axis::X => EventKind::Fftx { tile, subtile },
        }
    }

    fn slot(self, steps: &mut StepTimes) -> &mut f64 {
        match self {
            Axis::Z => &mut steps.fftz,
            Axis::Y => &mut steps.ffty,
            Axis::X => &mut steps.fftx,
        }
    }
}

/// One FFT step of a stage.
pub(crate) struct Fft {
    pub plan: Arc<Plan1d>,
    pub axis: Axis,
    /// `Some(stage)` arms the ABFT checksum line through this step
    /// (DESIGN.md §16); a mismatch fails the tile at `stage`.
    pub abft: Option<IntegrityStage>,
}

/// One exchange stage on one member of its group, as plain data.
pub(crate) struct StageShape {
    /// Local extent of the tiled axis τ.
    pub n_tau: usize,
    /// Planes of τ per communication tile (`T`; clamped to `1..=n_tau`).
    pub t: usize,
    /// Extent of v, the source's contiguous axis.
    pub n_v: usize,
    /// The group's split of v: peer `q` receives `v.count(q)` of every line.
    pub v: AxisSplit,
    /// The group's split of o, the carried axis: source `s` holds
    /// `o.count(s)` of it, the destination all of it.
    pub o: AxisSplit,
    /// This member's rank in the group.
    pub me: usize,
    /// Source line `(τ, o)` starts at `τ·src.0 + o·src.1`.
    pub src: (usize, usize),
    /// Destination line `(τ, w)` starts at `τ·dst.0 + w·dst.1`.
    pub dst: (usize, usize),
    /// FFT along v before Pack.
    pub pre: Option<Fft>,
    /// FFT along the completed axis after Unpack.
    pub post: Fft,
    /// `MPI_Test` rounds per tile during the pre-FFT, Pack, Unpack and the
    /// post-FFT.
    pub polls: [u32; 4],
    /// Sub-tile extents `(τ, o)` of the pack side (clamped to the tile).
    pub pack_sub: (usize, usize),
    /// Sub-tile extents `(τ, w)` of the unpack side.
    pub unpack_sub: (usize, usize),
    /// Arms the Pack integrity stage: the staged payload is sealed with a
    /// resident hash, re-verified at post time (a mismatch withholds the
    /// exchange and the driver re-packs), and the fault plan's crash and
    /// bit-flip trigger points on the pack→post boundary are visited.
    pub seal: bool,
    /// Window `W`.
    pub w: usize,
    /// Worker threads (`Th`) for the FFTs, Pack and Unpack.
    pub threads: usize,
}

impl StageShape {
    /// This member's share of o: lines per τ-plane at the source.
    fn n_o(&self) -> usize {
        self.o.count(self.me)
    }

    /// This member's share of v: lines per τ-plane at the destination.
    pub(crate) fn n_w(&self) -> usize {
        self.v.count(self.me)
    }

    /// Length of a destination line: all of o.
    fn line(&self) -> usize {
        self.post.plan.len()
    }

    fn tile_size(&self) -> usize {
        self.t.clamp(1, self.n_tau.max(1))
    }

    /// Communication tiles; the last may be short.
    pub(crate) fn tiles(&self) -> usize {
        self.n_tau.div_ceil(self.tile_size())
    }

    /// The τ-planes of `tile`.
    fn tile_range(&self, tile: usize) -> Range<usize> {
        let start = tile * self.tile_size();
        start..(start + self.tile_size()).min(self.n_tau)
    }

    pub(crate) fn src_len(&self) -> usize {
        self.n_tau * self.n_o() * self.n_v
    }

    fn dst_len(&self) -> usize {
        self.n_tau * self.n_w() * self.line()
    }

    /// The counts of a tile of `planes` τ-planes.
    fn exchange(&self, planes: usize) -> TileExchange {
        let send = self.v.counts().iter().map(|vq| planes * self.n_o() * vq);
        let recv = self.o.counts().iter().map(|os| planes * os * self.n_w());
        TileExchange::new(send.collect(), recv.collect())
    }

    /// The counts of a full tile and of the last one.
    fn exchanges(&self) -> [TileExchange; 2] {
        let last = self.tile_range(self.tiles().saturating_sub(1));
        [self.exchange(self.tile_size()), self.exchange(last.len())]
    }

    /// Which of [`Self::exchanges`] is `tile`'s.
    fn which(&self, tile: usize) -> usize {
        usize::from(tile + 1 == self.tiles())
    }

    /// Pack: copies the `v_q` runs of source lines `ts × os` into `send`'s
    /// per-destination blocks, each laid out `[τ − t0][o][v_q]` — one
    /// sub-tile's share of a tile that starts at plane `t0`, or (over the
    /// whole tile) the re-pack of a retransmit. Workers own whole
    /// destination blocks.
    fn pack(
        &self,
        xg: &TileExchange,
        src: &[Complex64],
        send: &mut [Complex64],
        t0: usize,
        (ts, os): (Range<usize>, Range<usize>),
    ) {
        let n_o = self.n_o();
        for_each_part_threaded(send, &xg.send_bounds, self.threads, |q, block| {
            let (v0, vq) = (self.v.offset(q), self.v.count(q));
            for tau in ts.clone() {
                for o in os.clone() {
                    let s = tau * self.src.0 + o * self.src.1 + v0;
                    let d = ((tau - t0) * n_o + o) * vq;
                    block[d..d + vq].copy_from_slice(&src[s..s + vq]);
                }
            }
        });
    }
}

/// The sub-tile grid of one side of a tile: blocks of `ext.0 × ext.1` over
/// `ts × 0..nj`, τ-major — the order the trace numbers sub-tiles in. Returns
/// how many there are with them.
fn sub_tiles(
    ts: Range<usize>,
    nj: usize,
    ext: (usize, usize),
) -> (usize, impl Iterator<Item = (Range<usize>, Range<usize>)>) {
    let (et, ej) = (ext.0.clamp(1, ts.len().max(1)), ext.1.clamp(1, nj.max(1)));
    let (tb, jb) = (ts.len().div_ceil(et), nj.div_ceil(ej));
    let blocks = (0..tb).flat_map(move |a| {
        let t0 = ts.start + a * et;
        let ts = t0..(t0 + et).min(ts.end);
        (0..jb).map(move |b| (ts.clone(), b * ej..(b * ej + ej).min(nj)))
    });
    (tb * jb, blocks)
}

/// The lines of one sub-tile: `(τ, j) ∈ ts × js`, each starting at
/// `τ·at.0 + j·at.1` in its stage buffer, numbered in ascending order of
/// start — the order the row splitter needs; the lines are disjoint
/// whichever axis is the outer one.
struct Lines {
    ts: Range<usize>,
    js: Range<usize>,
    at: (usize, usize),
}

impl Lines {
    fn len(&self) -> usize {
        self.ts.len() * self.js.len()
    }

    /// `(τ, j)` of line `k`: τ is the outer axis where its stride is the
    /// larger one (with equal strides one of the ranges has a single member).
    fn coords(&self, k: usize) -> (usize, usize) {
        let (nt, nj) = (self.ts.len(), self.js.len());
        let (a, b) = if self.at.0 >= self.at.1 {
            (k / nj, k % nj)
        } else {
            (k % nt, k / nt)
        };
        (self.ts.start + a, self.js.start + b)
    }

    fn start(&self, k: usize) -> usize {
        let (tau, j) = self.coords(k);
        tau * self.at.0 + j * self.at.1
    }
}

/// A waited tile's receive block, as the post-FFT's gather reads it: the
/// per-source blocks, each laid out `[τ − t0][o_s][w]`.
struct Recv<'a> {
    block: &'a [Complex64],
    /// Where each source's block starts.
    displs: &'a [usize],
    /// The group's split of o: source `s` sent `o.count(s)` elements of every
    /// destination line.
    o: &'a AxisSplit,
    n_w: usize,
    /// The tile's first τ-plane.
    t0: usize,
}

/// `len` lanes of a block, from lane `lane` on, that are the neighbouring
/// lines `w..w + len` of τ-plane `t0 + tl`.
#[derive(Clone, Copy, Default)]
struct Run {
    lane: usize,
    len: usize,
    tl: usize,
    w: usize,
}

/// The ABFT checksum lines of a batch: Σ over its lines before the transform
/// and after it (DESIGN.md §16).
#[derive(Default)]
struct LineSums {
    pre: Vec<Complex64>,
    post: Vec<Complex64>,
}

/// One worker's share of an FFT step over a sub-tile: its partial checksum
/// lines, and how long it worked and how much of that it spent gathering
/// from the receive block.
#[derive(Default)]
struct Share {
    sums: LineSums,
    gather: Duration,
    busy: Duration,
}

/// A stage's block io (see [`cfft::batch::run_blocks`]). The lines are
/// transformed where they lie in the stage buffer; the post-FFT's gather
/// reads them out of the receive block instead — Unpack is that gather, and
/// the destination buffer is written once, by the scatter. Where the step
/// arms ABFT, the checksum lines are taken on the block, between
/// gather and stages and between stages and scatter: that is the window a
/// fault must fall in to break FFT(Σ lines) = Σ FFT(lines).
struct StageIo<'a, F> {
    lines: &'a Lines,
    /// This worker's region of the stage buffer.
    out: InPlace<'a, F>,
    /// `Some`: gather from the receive block (the post-FFT).
    recv: Option<&'a Recv<'a>>,
    sums: Option<&'a mut LineSums>,
    /// Time spent gathering from the receive block: the step's Unpack share.
    gather: Duration,
}

impl<F: Fn(usize) -> usize> BlockIo for StageIo<'_, F> {
    fn gather(&mut self, ks: Range<usize>, block: &mut Block<'_>) {
        match self.recv {
            None => self.out.gather(ks, block),
            Some(from) => {
                let began = Instant::now();
                // The block's maximal runs of w-neighbours within one τ-plane:
                // each moves with one copy per source element, and a block of
                // neighbouring lines of one plane is a single run.
                let mut runs = [Run::default(); MAX_BLOCK];
                let mut nruns = 0;
                for (lane, k) in ks.enumerate() {
                    let (tau, w) = self.lines.coords(k);
                    let tl = tau - from.t0;
                    match runs[..nruns].last_mut() {
                        Some(run) if run.tl == tl && run.w + run.len == w => run.len += 1,
                        _ => {
                            runs[nruns] = Run {
                                lane,
                                len: 1,
                                tl,
                                w,
                            };
                            nruns += 1;
                        }
                    }
                }
                for (s, &displ) in from.displs.iter().enumerate() {
                    let (o0, os) = (from.o.offset(s), from.o.count(s));
                    for run in &runs[..nruns] {
                        let base = displ + run.tl * os * from.n_w + run.w;
                        let lanes = run.lane..run.lane + run.len;
                        block.load_rows(o0..o0 + os, lanes, from.block, base, from.n_w);
                    }
                }
                self.gather += began.elapsed();
            }
        }
        if let Some(sums) = &mut self.sums {
            block.add_lane_sums(&mut sums.pre);
        }
    }

    fn scatter(&mut self, ks: Range<usize>, block: &Block<'_>) {
        if let Some(sums) = &mut self.sums {
            block.add_lane_sums(&mut sums.post);
        }
        self.out.scatter(ks, block);
    }

    fn in_place(&mut self, k: usize) -> Option<&mut [Complex64]> {
        // Only a line nobody has to look at may skip the block.
        match (&self.recv, &self.sums) {
            (None, None) => self.out.in_place(k),
            _ => None,
        }
    }
}

/// Accumulates the batch sum of `starts.len()` rows of `data`, each `n`
/// elements long, into `dst` (cleared first): the slab-sweep form of the
/// ABFT checksum line, kept as the oracle of the in-block sums.
#[cfg(test)]
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

/// The ABFT check of `fft` over a batch of `batch` lines whose checksum
/// lines are `sums`: transforms Σ(lines) and compares it with Σ FFT(lines).
/// Linearity demands they agree within roundoff, so a compute or memory
/// fault between the two sums breaks the equality far beyond tolerance.
fn abft_verdict(
    fft: &Fft,
    sums: &mut LineSums,
    batch: usize,
    tile: usize,
    scratch: &mut BatchScratch,
) -> Result<(), Error> {
    let Some(stage) = fft.abft else {
        return Ok(());
    };
    let line = BatchLayout::contiguous(fft.plan.len(), 1);
    execute_batch(&fft.plan, &mut sums.pre, line, scratch);
    if abft_agrees(&sums.pre, &sums.post, batch) {
        Ok(())
    } else {
        Err(Error::IntegrityFailed { tile, stage })
    }
}

/// Per-rank compute scratch: with the stage buffers and the network
/// [`Staging`], everything one transform touches besides the caller's input
/// and the output it returns. Every buffer is fully rewritten before it is
/// read, so nothing of one execution can reach the next one's result
/// (DESIGN.md §15).
#[derive(Default)]
pub(crate) struct Workspace {
    /// Scratch of a stage's local phase (the slab's FFTz: one x-plane per
    /// worker thread).
    pub planes: Vec<Complex64>,
    /// Block buffers of the FFT steps (grown by the first that needs more;
    /// workers beyond the first bring their own).
    pub scratch: BatchScratch,
    /// The FFT steps' per-worker shares, the calling thread's first.
    shares: Vec<Share>,
}

/// A session's local phase: fills the first stage's source buffer from the
/// caller's input before the first tile (the slab's plane-wise
/// FFTz+Transpose, the pencil's copy), booking its own spans and step times.
pub(crate) type Local =
    Box<dyn Fn(&[Complex64], &mut [Complex64], &mut Workspace, &mut Transport<'_>, &mut StepTimes)>;

/// One [`StageShape`] as an [`OverlapEnv`], so [`crate::pipeline`] drives it
/// with the windowed schedule and the degradation ladder.
struct StageExec<'a> {
    comm: &'a Comm,
    shape: &'a StageShape,
    /// Counts of a full tile and of the last one.
    xg: &'a [TileExchange; 2],
    /// Posts, polls, waits and pools every tile's exchange over `comm`.
    net: Transport<'a>,
    /// The session's local phase with the caller's input (first stage only).
    local: Option<(&'a Local, &'a [Complex64])>,
    src: &'a mut [Complex64],
    dst: &'a mut [Complex64],
    ws: &'a mut Workspace,
    /// Resident hash over the packed staging buffer, set by the pack and
    /// re-verified at post time — memory SDC on the pack→post boundary is
    /// caught before the bytes reach any peer.
    send_hash: u64,
    /// The shape's poll counts, times the ladder's boost once it is applied.
    polls: [u32; 4],
    /// The compute steps' shares; the transport keeps the network steps'.
    steps: StepTimes,
}

impl StageExec<'_> {
    /// The FFT step `fft` over `lines`: the stage's pre-FFT, in place in the
    /// source buffer, or — given the tile's receive block — Unpack fused with
    /// the post-FFT, gathered from `recv` and written to the destination
    /// buffer once. Workers own contiguous runs of the lines' rows, each with
    /// its own block scratch and, where the step arms ABFT, its own partial
    /// checksum lines; the sub-tile's check is on their totals.
    ///
    /// One interval covers a fused step, so Unpack receives its measured
    /// gather share of it (as `FftzTranspose::run` splits FFTz/Transpose).
    fn fft(
        &mut self,
        fft: &Fft,
        lines: &Lines,
        recv: Option<&Recv<'_>>,
        tile: usize,
        subtile: usize,
    ) -> Result<(), Error> {
        let (plan, n) = (&*fft.plan, fft.plan.len());
        let armed = fft.abft.is_some();
        let data = match recv {
            Some(_) => &mut *self.dst,
            None => &mut *self.src,
        };
        let Workspace {
            scratch, shares, ..
        } = &mut *self.ws;
        let t0 = Instant::now();
        let runs = split_rows(data, n, lines.len(), self.shape.threads, |k| lines.start(k));
        if shares.len() < runs.len() {
            shares.resize_with(runs.len(), Share::default);
        }
        let shares = &mut shares[..runs.len()];
        let work = |(run, share): (RowRun<'_>, &mut Share), scratch: &mut BatchScratch| {
            let began = Instant::now();
            for sum in [&mut share.sums.pre, &mut share.sums.post] {
                sum.clear();
                sum.resize(if armed { n } else { 0 }, Complex64::ZERO);
            }
            let mut io = StageIo {
                lines,
                out: InPlace::new(run.data, n, 1, |k| lines.start(k) - run.offset),
                recv,
                sums: armed.then_some(&mut share.sums),
                gather: Duration::ZERO,
            };
            run_blocks(plan, run.rows, &mut io, scratch);
            share.gather = io.gather;
            share.busy = began.elapsed();
        };
        fork_join(
            runs.into_iter().zip(shares.iter_mut()).collect(),
            |task| work(task, scratch),
            |task| work(task, &mut BatchScratch::for_plan(plan)),
        );
        let t1 = Instant::now();
        let mut began = t0;
        if recv.is_some() {
            let gather: Duration = shares.iter().map(|share| share.gather).sum();
            let busy: Duration = shares.iter().map(|share| share.busy).sum();
            let share = gather.as_secs_f64() / busy.as_secs_f64().max(f64::MIN_POSITIVE);
            began = t0 + (t1 - t0).mul_f64(share.min(1.0));
            self.steps.unpack += (began - t0).as_secs_f64();
            self.net
                .span(t0, began, EventKind::Unpack { tile, subtile });
        }
        *fft.axis.slot(&mut self.steps) += (t1 - began).as_secs_f64();
        self.net.span(began, t1, fft.axis.event(tile, subtile));
        let Some((total, rest)) = shares.split_first_mut() else {
            return Ok(());
        };
        for share in rest {
            for (sum, part) in [
                (&mut total.sums.pre, &share.sums.pre),
                (&mut total.sums.post, &share.sums.post),
            ] {
                for (acc, v) in sum.iter_mut().zip(part) {
                    *acc += *v;
                }
            }
        }
        abft_verdict(fft, &mut total.sums, lines.len(), tile, scratch)
            .inspect_err(|_| self.net.mark(EventKind::Corrupt { tile }))
    }

    /// Packs `part` of `tile` (see [`StageShape::pack`]) into the staging
    /// buffer.
    fn pack(&mut self, tile: usize, part: (Range<usize>, Range<usize>)) {
        let xg = &self.xg[self.shape.which(tile)];
        let send = self.net.staged(xg.total_send);
        let t0 = self.shape.tile_range(tile).start;
        self.shape.pack(xg, self.src, send, t0, part);
    }

    /// Seals the staged payload: post time re-verifies this hash.
    fn seal(&mut self, tile: usize) {
        let total_send = self.xg[self.shape.which(tile)].total_send;
        self.send_hash = checksum(self.net.staged(total_send));
    }
}

impl OverlapEnv for StageExec<'_> {
    type Req = Req;

    fn num_tiles(&self) -> usize {
        self.shape.tiles()
    }

    fn window(&self) -> usize {
        self.shape.w
    }

    fn fftz_transpose(&mut self) {
        if let Some((local, input)) = self.local.take() {
            local(input, self.src, self.ws, &mut self.net, &mut self.steps);
        }
    }

    async fn ffty_pack(
        &mut self,
        tile: usize,
        inflight: &mut [(usize, Self::Req)],
    ) -> Result<(), Error> {
        let shape = self.shape;
        let (ts, id) = (shape.tile_range(tile), self.net.tile_id(tile));
        // Sub-tile grid (Figure 4, left).
        let (subtiles, blocks) = sub_tiles(ts.clone(), shape.n_o(), shape.pack_sub);
        let mut sched_fft = PollSchedule::new(subtiles, self.polls[0]);
        let mut sched_pack = PollSchedule::new(subtiles, self.polls[1]);
        for (subtile, part) in blocks.enumerate() {
            if let Some(fft) = &shape.pre {
                let lines = Lines {
                    ts: part.0.clone(),
                    js: part.1.clone(),
                    at: shape.src,
                };
                self.fft(fft, &lines, None, id, subtile)?;
                self.net.poll(inflight, sched_fft.after_unit())?;
            }
            let t0 = Instant::now();
            self.pack(tile, part);
            let t1 = Instant::now();
            self.steps.pack += (t1 - t0).as_secs_f64();
            let pack = EventKind::Pack { tile: id, subtile };
            self.net.span(t0, t1, pack);
            self.net.poll(inflight, sched_pack.after_unit())?;
        }
        if shape.seal {
            self.seal(tile);
        }
        Ok(())
    }

    async fn post_a2a(&mut self, tile: usize) -> Self::Req {
        if self.shape.seal {
            // Fault-plan crash injection: a rank seeded to die "at tile `k`"
            // dies here, on the boundary between pack and exchange — its
            // peers may already hold this tile's pre-crash sends (and must
            // still be able to complete tiles that need nothing more from
            // us).
            self.comm.crash_point(tile);
            let total_send = self.xg[self.shape.which(tile)].total_send;
            // Fault-plan memory-SDC injection: flip one seeded bit of the
            // packed staging buffer on the same pack→post boundary.
            if let Some(site) = self.comm.bitflip_point(tile) {
                flip_seeded_bit(self.net.staged(total_send), site);
            }
            // Resident hash check: the staged payload must still be the
            // bytes the pack sealed, or the exchange is withheld — the
            // request surfaces the failure at wait time and the driver
            // re-packs from the pristine transformed source (no peer
            // sequenced anything).
            if checksum(self.net.staged(total_send)) != self.send_hash {
                let tile = self.net.tile_id(tile);
                self.net.mark(EventKind::Corrupt { tile });
                return Req::Withheld(IntegrityStage::Pack);
            }
        }
        let xg = &self.xg[self.shape.which(tile)];
        self.net.post(tile, xg)
    }

    async fn wait(&mut self, tile: usize, req: Self::Req) -> Result<(), (Self::Req, Error)> {
        self.net.wait(tile, req)
    }

    async fn unpack_fftx(
        &mut self,
        tile: usize,
        inflight: &mut [(usize, Self::Req)],
    ) -> Result<(), Error> {
        let recv = self.net.take_recv()?;
        let shape = self.shape;
        let (ts, id) = (shape.tile_range(tile), self.net.tile_id(tile));
        // Sub-tile grid (Figure 4, right).
        let (subtiles, blocks) = sub_tiles(ts.clone(), shape.n_w(), shape.unpack_sub);
        let mut sched_unpack = PollSchedule::new(subtiles, self.polls[2]);
        let mut sched_fft = PollSchedule::new(subtiles, self.polls[3]);
        let from = Recv {
            block: &recv,
            displs: &self.xg[shape.which(tile)].recv_displs,
            o: &shape.o,
            n_w: shape.n_w(),
            t0: ts.start,
        };
        for (subtile, (ts, js)) in blocks.enumerate() {
            let lines = Lines {
                ts,
                js,
                at: shape.dst,
            };
            // One fused step is one unit of Unpack and one of the post-FFT.
            self.fft(&shape.post, &lines, Some(&from), id, subtile)?;
            let due = sched_unpack.after_unit() + sched_fft.after_unit();
            self.net.poll(inflight, due)?;
        }
        self.net.recycle(recv);
        Ok(())
    }

    fn boost_polls(&mut self) {
        self.polls = self.polls.map(|f| f.saturating_mul(POLL_BOOST));
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

    fn retransmit(&mut self, tile: usize) -> Option<Self::Req> {
        // Heal a Pack-stage integrity failure: re-pack the tile from the
        // pristine transformed source (the pre-FFT was in place; the
        // corruption hit only the staging copy), re-seal the hash, and
        // re-post. The injection points are deliberately not revisited, so
        // a planned fault fires once.
        self.pack(tile, (self.shape.tile_range(tile), 0..self.shape.n_o()));
        self.seal(tile);
        let xg = &self.xg[self.shape.which(tile)];
        Some(self.net.post(tile, xg))
    }

    fn post_poisoned(&self, req: &Self::Req) -> Option<IntegrityStage> {
        match req {
            Req::Withheld(stage) => Some(*stage),
            _ => None,
        }
    }

    fn tile_id(&self, tile: usize) -> usize {
        self.net.tile_id(tile)
    }

    fn sched_point(&mut self) {
        // Give mpisim's virtual scheduler (checked runs) a deterministic
        // release point once per tile; free outside checked runs.
        self.comm.progress_hint();
    }
}

/// What one execution of a [`Session`] produced on this rank.
pub(crate) struct Ran {
    /// The last stage's destination buffer.
    pub data: Vec<Complex64>,
    /// What the resilient driver had to do, across all stages (tile numbers
    /// count each stage's tiles after the previous one's).
    pub recovery: Recovery,
    pub steps: StepTimes,
    /// `MPI_Test` calls issued.
    pub tests: u64,
    /// Exchange setups performed: one per persistent-plan init.
    pub setups: u64,
}

/// A stage's communicator: the caller's (the slab's) or the session's own
/// (the pencil's row/column split).
pub(crate) enum StageComm<'a> {
    Borrowed(&'a Comm),
    Owned(Comm),
}

impl Deref for StageComm<'_> {
    type Target = Comm;

    fn deref(&self) -> &Comm {
        match self {
            StageComm::Borrowed(comm) => comm,
            StageComm::Owned(comm) => comm,
        }
    }
}

/// One pinned exchange stage of a [`Session`].
struct Stage<'a> {
    comm: StageComm<'a>,
    shape: StageShape,
    /// Counts of a full tile and of the last one.
    xg: [TileExchange; 2],
    /// The stage's persistent plans, one slot per tile.
    plans: TilePlans,
}

/// The one owner of a real transform (see the module header).
pub(crate) struct Session<'a> {
    /// Empty when the transform was refused.
    stages: Vec<Stage<'a>>,
    /// Run the TH comparator's schedule instead of NEW's.
    th: bool,
    local: Local,
    /// Why the transform could not be pinned; every execution returns it.
    refused: Option<Error>,
    /// Length of stage buffer `k` (stage `k` reads `k` and writes `k + 1`).
    lens: Vec<usize>,
    staging: Staging,
    /// The stage buffer the session keeps (see [`Self::execute`]).
    mid: Vec<Complex64>,
    ws: Workspace,
    executions: u64,
}

impl<'a> Session<'a> {
    /// Pins `stages`, run in turn under the NEW schedule (`th`: the TH
    /// comparator's); `local` fills the first one's source buffer.
    pub(crate) fn new(stages: Vec<(StageComm<'a>, StageShape)>, th: bool, local: Local) -> Self {
        let last = stages.last().map(|(_, shape)| shape.dst_len());
        let srcs = stages.iter().map(|(_, shape)| shape.src_len());
        let lens: Vec<usize> = srcs.chain(last).collect();
        let stages: Vec<Stage<'a>> = stages
            .into_iter()
            .map(|(comm, shape)| Stage {
                comm,
                xg: shape.exchanges(),
                plans: TilePlans::new(shape.tiles()),
                shape,
            })
            .collect();
        // The windowed pipeline never has more than `W + 1` tiles between
        // post and unpack; no tile packs or receives more than a full one of
        // the largest stage.
        let staging = Staging::new(
            stages.iter().map(|s| s.xg[0].total_send).max().unwrap_or(0),
            stages.iter().map(|s| s.shape.w).max().unwrap_or(0) + 1,
            stages.iter().map(|s| s.xg[0].total_recv).max().unwrap_or(0),
        );
        let mut session = Session {
            stages,
            th,
            local,
            refused: None,
            lens,
            staging,
            mid: Vec::new(),
            ws: Workspace::default(),
            executions: 0,
        };
        session.mid = vec![Complex64::ZERO; session.longest(true)];
        session
    }

    /// A session whose every execution returns `error`: what a constructor
    /// that cannot fail by signature keeps of a rejected configuration.
    pub(crate) fn refused(error: Error) -> Self {
        let mut session = Session::new(Vec::new(), false, Box::new(|_, _, _, _, _| {}));
        session.refused = Some(error);
        session
    }

    /// Whether stage buffer `k` lives in the allocation an execution
    /// returns — it does when it is an even number of stages before the end
    /// — rather than in the one the session keeps.
    fn returned(&self, k: usize) -> bool {
        (self.stages.len() - k) % 2 == 0
    }

    /// The longest stage buffer in the kept (or the returned) allocation.
    fn longest(&self, kept: bool) -> usize {
        let buffers = (0..self.lens.len()).filter(|&k| self.returned(k) != kept);
        buffers.map(|k| self.lens[k]).max().unwrap_or(0)
    }

    /// Executions attempted.
    pub(crate) fn executions(&self) -> u64 {
        self.executions
    }

    /// Initialised persistent plans, all stages.
    pub(crate) fn live_plans(&self) -> usize {
        self.stages.iter().map(|s| s.plans.live()).sum()
    }

    /// Frees every persistent plan over the communicator of its stage;
    /// returns how many. Dropping the session does the same.
    pub(crate) fn free_plans(&mut self) -> usize {
        let stages = self.stages.iter_mut();
        stages.map(|s| s.plans.free_all(&s.comm)).sum()
    }

    /// One transform of `input`, this rank's block of the first stage's
    /// source (the slab's x-slab in x-y-z layout, the pencil's
    /// `(X_r, Y_c, Z_all)` block). Counts as an attempt whatever the outcome.
    ///
    /// Stage `i` reads buffer `i` and writes buffer `i + 1`, and only those
    /// two are live while it runs, so two allocations carry them all: the
    /// buffers an even number of stages before the end (the last of them the
    /// result) share the one this execution allocates and returns, the others
    /// the one the session keeps. A steady-state execution therefore
    /// allocates nothing but its output. The kept buffer is the older
    /// allocation: a one-shot call frees it on return while its caller still
    /// holds the output, and the allocator hands the hole to the next call
    /// only if it is not the top of the heap (the other order re-faults the
    /// buffer on every call: fftperf `slab64_tiles` 7.1 → 8.6 ms).
    pub(crate) fn execute(
        &mut self,
        input: &[Complex64],
        res: &Resilience,
        recorder: &mut dyn Recorder,
    ) -> Result<Ran, Error> {
        let epoch = Instant::now();
        self.executions += 1;
        if let Some(error) = self.refused {
            return Err(error);
        }
        assert_eq!(
            input.len(),
            self.lens[0],
            "input must be this rank's block of the problem (the slab's x-slab, the pencil's \
             (X_r, Y_c, Z_all) pencil)"
        );
        let n = self.stages.len();
        let mut out = vec![Complex64::ZERO; self.longest(false)];
        let mut ran = Ran {
            data: Vec::new(),
            recovery: Recovery::default(),
            steps: StepTimes::default(),
            tests: 0,
            setups: 0,
        };
        let mut tile_base = 0;
        for i in 0..n {
            let (src, dst) = if self.returned(i) {
                (&mut out, &mut self.mid)
            } else {
                (&mut self.mid, &mut out)
            };
            let stage = &mut self.stages[i];
            let (comm, shape): (&Comm, &StageShape) = (&stage.comm, &stage.shape);
            let mut env = StageExec {
                comm,
                shape,
                xg: &stage.xg,
                net: Transport::new(
                    comm,
                    &mut stage.plans,
                    &mut self.staging,
                    res.stall_timeout,
                    tile_base,
                    epoch,
                    &mut *recorder,
                ),
                local: (i == 0).then_some((&self.local, input)),
                src: &mut src[..self.lens[i]],
                dst: &mut dst[..self.lens[i + 1]],
                ws: &mut self.ws,
                send_hash: 0,
                polls: shape.polls,
                steps: StepTimes::default(),
            };
            let recovery = if self.th {
                block_on(try_run_th(&mut env, res))?
            } else {
                block_on(try_run_new(&mut env, res))?
            };
            ran.recovery.absorb(recovery);
            ran.steps += env.steps + env.net.steps;
            ran.tests += env.net.tests;
            ran.setups += env.net.setups;
            tile_base += shape.tiles();
        }
        out.truncate(self.lens[n]);
        ran.data = out;
        Ok(ran)
    }
}

/// The crate's one plan-freeing `Drop`: whichever way a transform ends — a
/// one-shot call returning, a session going out of scope, an error return,
/// a crashed rank unwinding — its plans are freed over the communicators
/// that posted them, in-flight executions cancelled with them (no MC006
/// finding, nothing left in a mailbox).
impl Drop for Session<'_> {
    fn drop(&mut self) {
        self.free_plans();
    }
}

#[cfg(test)]
impl Session<'_> {
    /// The plan tables and the staging, for the crate's pooling tests.
    pub(crate) fn transport_state(&self) -> (Vec<&TilePlans>, &Staging) {
        (
            self.stages.iter().map(|s| &s.plans).collect(),
            &self.staging,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfft::planner::Rigor;
    use cfft::{Direction, PlanCache};
    use proptest::prelude::*;

    /// Member `me`'s shape of a stage over `group` members: `n_tau × n_o ×
    /// n_v` split on o at the source and on v at the destination, either
    /// axis outermost on either side.
    fn shape(
        (n_tau, n_o, n_v): (usize, usize, usize),
        (group, me): (usize, usize),
        t: usize,
        tau_major: (bool, bool),
        pack_sub: (usize, usize),
        unpack_sub: (usize, usize),
        threads: usize,
    ) -> StageShape {
        let (v, o) = (AxisSplit::new(n_v, group), AxisSplit::new(n_o, group));
        let (mine, n_w) = (o.count(me), v.count(me));
        StageShape {
            n_tau,
            t,
            n_v,
            src: if tau_major.0 {
                (mine * n_v, n_v)
            } else {
                (n_v, n_tau * n_v)
            },
            dst: if tau_major.1 {
                (n_w * n_o, n_o)
            } else {
                (n_o, n_tau * n_o)
            },
            v,
            o,
            me,
            pre: None,
            post: Fft {
                plan: PlanCache::global().plan(n_o, Direction::Forward, Rigor::Estimate),
                axis: Axis::X,
                abft: None,
            },
            polls: [0; 4],
            pack_sub,
            unpack_sub,
            seal: false,
            w: 1,
            threads,
        }
    }

    /// The element at global `(τ, o, v)`.
    fn element(tau: usize, o: usize, v: usize) -> Complex64 {
        Complex64::new((tau * 100 + o) as f64, v as f64)
    }

    /// The gather half of the fused step alone: every block of at most
    /// `lanes` lines of every worker's run is gathered from `from` and
    /// de-interleaved to its place in `dst`, untransformed — what Unpack did
    /// as a sweep of its own.
    fn gather_lines(
        lines: &Lines,
        from: &Recv<'_>,
        dst: &mut [Complex64],
        n: usize,
        threads: usize,
        lanes: usize,
    ) {
        for run in split_rows(dst, n, lines.len(), threads, |k| lines.start(k)) {
            let mut io = StageIo {
                lines,
                out: InPlace::new(run.data, n, 1, |k| lines.start(k) - run.offset),
                recv: Some(from),
                sums: None,
                gather: Duration::ZERO,
            };
            for first in run.rows.clone().step_by(lanes) {
                let ks = first..(first + lanes).min(run.rows.end);
                let (mut re, mut im) = (vec![0.0; n * ks.len()], vec![0.0; n * ks.len()]);
                let mut block = Block::new(&mut re, &mut im, ks.len());
                io.gather(ks.clone(), &mut block);
                io.out.scatter(ks, &block);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Pack on every member, the blocks moved as an all-to-all moves
        /// them, the fused step's gather on every member: destination line
        /// `(τ, w)` of member `b` holds the elements `(τ, ·, v_b + w)` in o
        /// order — sub-tile by sub-tile, tile by tile, whatever the layouts,
        /// however ragged the splits (members without a share included),
        /// wherever the blocks and the workers' runs are cut.
        #[test]
        fn pack_exchange_gather_is_the_redistribution(
            dims in (1usize..6, 1usize..7, 1usize..7),
            group in 1usize..5,
            t in 1usize..7,
            tau_major in (any::<bool>(), any::<bool>()),
            pack_sub in (1usize..4, 1usize..4),
            unpack_sub in (1usize..4, 1usize..4),
            (threads, lanes) in (1usize..4, 1usize..6),
        ) {
            let (n_tau, n_o, n_v) = dims;
            let shapes: Vec<StageShape> = (0..group)
                .map(|me| shape(dims, (group, me), t, tau_major, pack_sub, unpack_sub, threads))
                .collect();
            let srcs: Vec<Vec<Complex64>> = shapes.iter().map(|s| {
                let mut src = vec![Complex64::ZERO; s.src_len()];
                for tau in 0..n_tau {
                    for o in 0..s.n_o() {
                        for v in 0..n_v {
                            src[tau * s.src.0 + o * s.src.1 + v] =
                                element(tau, s.o.offset(s.me) + o, v);
                        }
                    }
                }
                src
            }).collect();
            let mut dsts: Vec<Vec<Complex64>> =
                shapes.iter().map(|s| vec![Complex64::new(-1.0, -1.0); s.dst_len()]).collect();

            let tiles = shapes[0].tiles();
            for tile in 0..tiles {
                let exchanges: Vec<[TileExchange; 2]> =
                    shapes.iter().map(StageShape::exchanges).collect();
                let xg = |a: usize| &exchanges[a][shapes[a].which(tile)];
                // send[q] of member a is recv[a] of member q.
                for (a, s) in shapes.iter().enumerate() {
                    prop_assert_eq!(s.tiles(), tiles);
                    for q in 0..group {
                        prop_assert_eq!(xg(a).send_counts[q], xg(q).recv_counts[a]);
                    }
                }
                let sends: Vec<Vec<Complex64>> = (0..group).map(|a| {
                    let s = &shapes[a];
                    let ts = s.tile_range(tile);
                    let mut send = vec![Complex64::new(-2.0, -2.0); xg(a).total_send];
                    for part in sub_tiles(ts.clone(), s.n_o(), s.pack_sub).1 {
                        s.pack(xg(a), &srcs[a], &mut send, ts.start, part);
                    }
                    send
                }).collect();
                for b in 0..group {
                    let s = &shapes[b];
                    let ts = s.tile_range(tile);
                    let recv: Vec<Complex64> = (0..group).flat_map(|a| {
                        let bounds = &xg(a).send_bounds;
                        sends[a][bounds[b]..bounds[b + 1]].iter().copied()
                    }).collect();
                    prop_assert_eq!(recv.len(), xg(b).total_recv);
                    let from = Recv {
                        block: &recv,
                        displs: &xg(b).recv_displs,
                        o: &s.o,
                        n_w: s.n_w(),
                        t0: ts.start,
                    };
                    for (ts, js) in sub_tiles(ts.clone(), s.n_w(), s.unpack_sub).1 {
                        let lines = Lines { ts, js, at: s.dst };
                        gather_lines(&lines, &from, &mut dsts[b], n_o, threads, lanes);
                    }
                }
            }
            for (s, dst) in shapes.iter().zip(&dsts) {
                for tau in 0..n_tau {
                    for w in 0..s.n_w() {
                        let line = tau * s.dst.0 + w * s.dst.1;
                        for o in 0..n_o {
                            prop_assert_eq!(
                                dst[line + o],
                                element(tau, o, s.v.offset(s.me) + w),
                                "member {} line ({}, {}) element {}", s.me, tau, w, o
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn sub_tiles_are_numbered_tau_major_and_clamped_to_the_tile() {
        let (count, blocks) = sub_tiles(4..7, 5, (2, 3));
        let blocks: Vec<_> = blocks.collect();
        assert_eq!(count, blocks.len());
        assert_eq!(
            blocks,
            vec![(4..6, 0..3), (4..6, 3..5), (6..7, 0..3), (6..7, 3..5)]
        );
        // Extents beyond the tile give one sub-tile; an empty side none.
        let whole = (usize::MAX, usize::MAX);
        assert_eq!(
            sub_tiles(2..5, 4, whole).1.collect::<Vec<_>>(),
            vec![(2..5, 0..4)]
        );
        assert_eq!(sub_tiles(2..5, 0, whole).0, 0);
    }

    /// A block io that corrupts one lane of one block on its way from the
    /// stages to the post-sum and the scatter — a fault inside the ABFT
    /// window. `hit` is `(the block's first line, lane)`.
    struct Perturb<Io> {
        io: Io,
        hit: Option<(usize, usize)>,
    }

    impl<Io: BlockIo> BlockIo for Perturb<Io> {
        fn gather(&mut self, ks: Range<usize>, block: &mut Block<'_>) {
            self.io.gather(ks, block);
        }

        fn scatter(&mut self, ks: Range<usize>, block: &Block<'_>) {
            match self.hit {
                Some((first, lane)) if first == ks.start => {
                    let (n, lanes) = (block.line_len(), block.lanes());
                    let (mut re, mut im) = (vec![0.0; n * lanes], vec![0.0; n * lanes]);
                    let mut bad = Block::new(&mut re, &mut im, lanes);
                    let mut rows = vec![Complex64::ZERO; n * lanes];
                    block.store_rows(0..n, 0..lanes, &mut rows, 0, lanes);
                    rows[2 * lanes + lane].re += 1e-3;
                    bad.load_rows(0..n, 0..lanes, &rows, 0, lanes);
                    self.io.scatter(ks, &bad);
                }
                _ => self.io.scatter(ks, block),
            }
        }
    }

    /// One worker's pass of `fft` over `lines` (gathered from `recv` if
    /// given) through a [`Perturb`]: the sub-tile's verdict at tile 7, and
    /// the checksum lines as the blocks left them.
    fn fft_step(
        fft: &Fft,
        lines: &Lines,
        data: &mut [Complex64],
        recv: Option<&Recv<'_>>,
        hit: Option<(usize, usize)>,
    ) -> (Result<(), Error>, LineSums) {
        let n = fft.plan.len();
        let mut sums = LineSums {
            pre: vec![Complex64::ZERO; n],
            post: vec![Complex64::ZERO; n],
        };
        let mut scratch = BatchScratch::default();
        let io = StageIo {
            lines,
            out: InPlace::new(data, n, 1, |k| lines.start(k)),
            recv,
            sums: Some(&mut sums),
            gather: Duration::ZERO,
        };
        run_blocks(
            &fft.plan,
            0..lines.len(),
            &mut Perturb { io, hit },
            &mut scratch,
        );
        let taken = LineSums {
            pre: sums.pre.clone(),
            post: sums.post.clone(),
        };
        let verdict = abft_verdict(fft, &mut sums, lines.len(), 7, &mut scratch);
        (verdict, taken)
    }

    fn assert_sums_close(got: &[Complex64], want: &[Complex64], what: &str) {
        let scale = want.iter().fold(1.0f64, |m, v| m.max(v.abs()));
        for (j, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                (*g - *w).abs() <= 1e-12 * scale,
                "{what}[{j}]: {g:?} vs {w:?}"
            );
        }
    }

    #[test]
    fn in_block_sums_equal_the_slab_sweep_and_catch_a_perturbed_lane() {
        let n = 8;
        let per = cfft::batch::block_lines(n);
        let plan = PlanCache::global().plan(n, Direction::Forward, Rigor::Estimate);
        // (τ-planes, lines a plane): one full block; a full block and a
        // remainder; two planes whose first block is cut by the τ boundary.
        for (nt, nj) in [(1, per), (1, per + 5), (2, per - 6)] {
            for tau_major in [true, false] {
                let at = if tau_major { (nj * n, n) } else { (n, nt * n) };
                let lines = Lines {
                    ts: 0..nt,
                    js: 0..nj,
                    at,
                };
                let rows: Vec<usize> = (0..lines.len()).map(|k| lines.start(k)).collect();
                // What the exchange delivered: one source, `[τ][o][w]`.
                let recv: Vec<Complex64> = (0..nt * n * nj)
                    .map(|i| crate::serial::test_field(i % 7, i % 5, i))
                    .collect();
                let o = AxisSplit::new(n, 1);
                let from = Recv {
                    block: &recv,
                    displs: &[0],
                    o: &o,
                    n_w: nj,
                    t0: 0,
                };
                let mut gathered = vec![Complex64::ZERO; recv.len()];
                gather_lines(&lines, &from, &mut gathered, n, 1, per);
                let (mut pre, mut post) = (Vec::new(), Vec::new());
                abft_sum_rows(&mut pre, &gathered, &rows, n);

                for (stage, recv) in [
                    (IntegrityStage::Ffty, None),
                    (IntegrityStage::Fftx, Some(&from)),
                ] {
                    let fft = Fft {
                        plan: plan.clone(),
                        axis: Axis::X,
                        abft: Some(stage),
                    };
                    let case = format!("{nt}×{nj} τ-major {tau_major} {stage}");
                    // The pre-FFT transforms the lines where they lie; the
                    // fused post-FFT overwrites whatever the buffer held.
                    let mut data = match recv {
                        None => gathered.clone(),
                        Some(_) => vec![Complex64::new(-1.0, -1.0); gathered.len()],
                    };
                    let (verdict, sums) = fft_step(&fft, &lines, &mut data, recv, None);
                    assert_eq!(verdict, Ok(()), "{case}");
                    abft_sum_rows(&mut post, &data, &rows, n);
                    assert_sums_close(&sums.pre, &pre, &format!("{case} pre"));
                    assert_sums_close(&sums.post, &post, &format!("{case} post"));
                    // One block adds its lanes in the rows' order: the split
                    // planes' sums are then the sweep's to the bit.
                    if lines.len() <= per {
                        let bits = |line: &[Complex64]| -> Vec<_> {
                            let bits = |v: &Complex64| (v.re.to_bits(), v.im.to_bits());
                            line.iter().map(bits).collect()
                        };
                        assert_eq!(bits(&sums.pre), bits(&pre), "{case} pre");
                        assert_eq!(bits(&sums.post), bits(&post), "{case} post");
                    }

                    // One lane of the first block, then of the last.
                    let last = (lines.len() - 1) / per * per;
                    for hit in [(0, 0), (last, lines.len() - 1 - last)] {
                        let mut data = gathered.clone();
                        let (verdict, _) = fft_step(&fft, &lines, &mut data, recv, Some(hit));
                        let failed = Error::IntegrityFailed { tile: 7, stage };
                        assert_eq!(verdict, Err(failed), "{case} hit {hit:?}");
                    }
                }
            }
        }
    }

    /// A sealed stage that is not a transform's first numbers its tiles
    /// after the earlier stages' — in every integrity error, the exhausted
    /// Pack heal's included.
    #[test]
    fn an_exhausted_pack_heal_names_the_tile_by_its_transform_wide_number() {
        let faults = faultplan::FaultPlan::seeded(0xb17).with_memory_bitflip(0, 1);
        mpisim::run_with_faults(1, faults, |comm| {
            let stage = |seal: bool| {
                let shape = StageShape {
                    seal,
                    ..shape((4, 3, 5), (1, 0), 2, (true, true), (1, 1), (1, 1), 1)
                };
                (StageComm::Borrowed(&comm), shape)
            };
            let copy: Local = Box::new(|input, a, _, _, _| a.copy_from_slice(input));
            let mut session = Session::new(vec![stage(false), stage(true)], false, copy);
            let input = vec![Complex64::new(1.0, -1.0); 4 * 3 * 5];
            // No retry budget: the first rejected seal is final.
            let res = Resilience {
                max_strikes: 0,
                ..Resilience::default()
            };
            let err = session
                .execute(&input, &res, &mut crate::trace::NoopRecorder)
                .map(|ran| ran.recovery)
                .expect_err("the flipped bit breaks the seal");
            // Stage 0 has two tiles, so stage 1's tile 1 is tile 3.
            let stage = IntegrityStage::Pack;
            assert_eq!(err, Error::IntegrityFailed { tile: 3, stage });
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
}
