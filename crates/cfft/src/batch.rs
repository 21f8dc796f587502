//! Batched, strided 1-D transforms — the crate's analogue of FFTW's
//! "advanced" interface (`fftw_plan_many_dft`).
//!
//! The 3-D pipeline transforms thousands of equal-length lines per step
//! (all `z`-lines of a slab, all `y`-lines of a tile, …). This module runs
//! one [`Plan1d`] over such a batch — described by an element `stride`
//! within a line and a `dist` between consecutive lines ([`execute_batch`]),
//! or by a list of row starts ([`execute_rows`]) — **a block of lines at a
//! time**.
//!
//! A block is up to `B =` [`block_lines`]`(n)` lines gathered into a
//! [`Block`]: *interleaved*, line `l`'s element `j` at index `j·B + l`, and
//! *split-complex*, the real parts in one `f64` plane and the imaginary parts
//! in another. The Stockham stages of [`crate::mixed`] run over all `B` lanes
//! at once, ping-ponging between two such blocks, and the result is scattered
//! back from whichever holds it. Whatever the layout, the transform itself
//! therefore runs on the same cache-resident block of unit-stride `f64`
//! lanes, so a strided batch costs what a contiguous one does; when the lanes
//! are neighbours in memory (`dist = 1`, the columns of a matrix) gather and
//! scatter move one `B`-element row per `j`. Plans whose kernel is not
//! Stockham (naive, Bluestein) take the same path with blocks of one
//! line, which leaves the block for the kernel's `Complex64` form and returns
//! to it.
//!
//! One function runs stages over a block, [`run_blocks`], and **the caller
//! supplies the gather and the scatter** as a [`BlockIo`]. The entry points
//! above are `run_blocks` over [`InPlace`] (lines transformed where they
//! lie); `fft3d`'s stage executor passes an io of its own whose gather reads
//! a tile's receive block — so its Unpack is no separate sweep — and which
//! takes the ABFT checksum lines while a block is in cache.
//!
//! Blocking never changes a result: each lane meets exactly the arithmetic
//! it meets alone (see [`crate::mixed`]), so the output is bit-identical to
//! per-line [`Plan1d::execute`] for every `B`, block remainder and thread
//! count.

use crate::complex::Complex64;
use crate::planner::Plan1d;
use std::ops::Range;

/// Does any pair of distinct lines in `layout` (length `n`) touch a common
/// element, or any single line revisit an offset?
///
/// Line `l`, element `j` lives at `l·dist + j·stride`, so lines `l` and
/// `l + k` collide iff `k·dist = m·stride` for some `0 ≤ m ≤ n−1` — which is
/// what the loop below searches for. Interleavings are *allowed* as long as
/// they miss each other: the columns of a row-major matrix
/// (`stride = cols`, `dist = 1`, `howmany = cols`) are a legal batch because
/// `k·1` is never a multiple of `cols` for `k < cols`.
pub fn lines_alias(layout: BatchLayout, n: usize) -> bool {
    if n == 0 || layout.howmany == 0 {
        return false;
    }
    if layout.stride == 0 && n > 1 {
        // A single line writes the same offset n times.
        return true;
    }
    if layout.dist == 0 && layout.howmany > 1 {
        return true;
    }
    if layout.stride == 0 {
        // n == 1 and dist > 0: singleton lines at distinct offsets.
        return false;
    }
    for k in 1..layout.howmany {
        let d = k * layout.dist;
        if d > (n - 1) * layout.stride {
            // dist > 0 here (dist == 0 returned above), so separations only
            // grow with k: no farther pair can collide either.
            break;
        }
        if d % layout.stride == 0 {
            return true;
        }
    }
    false
}

/// Geometry of a batch of equal-length lines inside a flat buffer.
///
/// Line `l`, element `j` lives at offset `l·dist + j·stride`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchLayout {
    /// Number of lines.
    pub howmany: usize,
    /// Distance (in elements) between consecutive elements of one line.
    pub stride: usize,
    /// Distance (in elements) between the first elements of consecutive lines.
    pub dist: usize,
}

impl BatchLayout {
    /// Contiguous lines laid end to end: `stride = 1`, `dist = n`.
    pub fn contiguous(n: usize, howmany: usize) -> Self {
        BatchLayout {
            howmany,
            stride: 1,
            dist: n,
        }
    }

    /// Smallest buffer length able to hold this batch of `n`-length lines.
    pub fn required_len(&self, n: usize) -> usize {
        if self.howmany == 0 || n == 0 {
            return 0;
        }
        (self.howmany - 1) * self.dist + (n - 1) * self.stride + 1
    }
}

/// Most lines one block holds.
pub const MAX_BLOCK: usize = 16;

/// Elements one block may hold: two of them (the ping-pong pair, two `f64`
/// planes each, 16 bytes an element) are 64 KiB, which stays in L2 and — for
/// the short lines, whose stages make the most passes per byte — mostly in L1.
const BLOCK_ELEMS: usize = 2048;

/// Lines of length `n` transformed together as one block: as many as fit
/// `BLOCK_ELEMS`, at most [`MAX_BLOCK`] (beyond that the stage loops are
/// long enough and only the footprint grows), at least one. Derived from
/// `n` alone — results do not depend on it, so it is not a tuning parameter.
pub fn block_lines(n: usize) -> usize {
    (BLOCK_ELEMS / n.max(1)).clamp(1, MAX_BLOCK)
}

/// Block size `plan` runs with: only the Stockham kernel takes lanes.
fn block_of(plan: &Plan1d) -> usize {
    plan.stockham().map_or(1, |_| block_lines(plan.len()))
}

/// `lanes` lines of one length, interleaved and split-complex: element `j` of
/// lane `l` is `re[j·lanes + l] + i·im[j·lanes + l]`. The only form the
/// Stockham stages know — two planes of unit-stride `f64` lanes are what the
/// compiler vectorises at whatever width the target has, where an array of
/// `Complex64` pairs needs a shuffle around every twiddle multiply.
pub struct Block<'a> {
    pub(crate) re: &'a mut [f64],
    pub(crate) im: &'a mut [f64],
    lanes: usize,
}

impl<'a> Block<'a> {
    /// A block of `lanes` lines over the planes `re` and `im`.
    ///
    /// # Panics
    /// If the planes differ in length or do not hold whole lines.
    pub fn new(re: &'a mut [f64], im: &'a mut [f64], lanes: usize) -> Self {
        assert_eq!(re.len(), im.len(), "planes of one block");
        assert!(
            lanes > 0 && re.len() % lanes == 0,
            "a block holds whole lines"
        );
        Block { re, im, lanes }
    }

    /// Lines in the block.
    #[inline]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Elements of each line.
    #[inline]
    pub fn line_len(&self) -> usize {
        self.re.len() / self.lanes
    }

    /// The lanes `lanes` of the rows `rows` ← the rows of `data` that begin
    /// at `start`, `start + stride`, …: how lanes that are neighbours in
    /// memory arrive, one `lanes.len()`-element copy per `j`.
    pub fn load_rows(
        &mut self,
        rows: Range<usize>,
        lanes: Range<usize>,
        data: &[Complex64],
        start: usize,
        stride: usize,
    ) {
        debug_assert!(lanes.end <= self.lanes);
        let width = lanes.len();
        for (k, j) in rows.enumerate() {
            let at = j * self.lanes + lanes.start;
            split(
                &mut self.re[at..at + width],
                &mut self.im[at..at + width],
                &data[start + k * stride..][..width],
            );
        }
    }

    /// The rows of `data` that begin at `start`, `start + stride`, … ← the
    /// lanes `lanes` of the rows `rows`.
    pub fn store_rows(
        &self,
        rows: Range<usize>,
        lanes: Range<usize>,
        data: &mut [Complex64],
        start: usize,
        stride: usize,
    ) {
        debug_assert!(lanes.end <= self.lanes);
        let width = lanes.len();
        for (k, j) in rows.enumerate() {
            let at = j * self.lanes + lanes.start;
            join(
                &mut data[start + k * stride..][..width],
                &self.re[at..at + width],
                &self.im[at..at + width],
            );
        }
    }

    /// Lane `lane` ← the line whose elements are `line[0]`, `line[stride]`, …
    #[inline]
    pub fn load_lane(&mut self, lane: usize, line: &[Complex64], stride: usize) {
        let (n, lanes) = (self.line_len(), self.lanes);
        let (re, im) = (&mut self.re[lane..], &mut self.im[lane..]);
        for j in 0..n {
            let v = line[j * stride];
            re[j * lanes] = v.re;
            im[j * lanes] = v.im;
        }
    }

    /// The line `line[0]`, `line[stride]`, … ← lane `lane`.
    #[inline]
    pub fn store_lane(&self, lane: usize, line: &mut [Complex64], stride: usize) {
        let (n, lanes) = (self.line_len(), self.lanes);
        let (re, im) = (&self.re[lane..], &self.im[lane..]);
        for j in 0..n {
            line[j * stride] = Complex64::new(re[j * lanes], im[j * lanes]);
        }
    }

    /// `acc[j] += Σ_l` element `j` of lane `l`: one lane reduction per `j`,
    /// taken while the block is in cache (the ABFT checksum lines). The rows'
    /// sums are independent chains, which is all the pipelining the adds need.
    pub fn add_lane_sums(&self, acc: &mut [Complex64]) {
        let rows = self
            .re
            .chunks_exact(self.lanes)
            .zip(self.im.chunks_exact(self.lanes));
        for (acc, (re, im)) in acc.iter_mut().zip(rows) {
            let mut sum = Complex64::ZERO;
            for (re, im) in re.iter().zip(im) {
                sum += Complex64::new(*re, *im);
            }
            *acc += sum;
        }
    }
}

/// `row` de-interleaved into `re` and `im` (all of one length). A function
/// so that the three are parameters: known to be disjoint, the copy
/// vectorises (two `Complex64` in, a pair of reals and a pair of imaginaries
/// out) with no overlap check per row.
#[inline(always)]
fn split(re: &mut [f64], im: &mut [f64], row: &[Complex64]) {
    for ((re, im), v) in re.iter_mut().zip(im).zip(row) {
        *re = v.re;
        *im = v.im;
    }
}

/// `re` and `im` interleaved into `row`: [`split`] backwards.
#[inline(always)]
fn join(row: &mut [Complex64], re: &[f64], im: &[f64]) {
    for ((re, im), v) in re.iter().zip(im).zip(row) {
        *v = Complex64::new(*re, *im);
    }
}

/// The one scratch under every kernel: the ping-pong pair of blocks the
/// stages run between. It grows to fit whatever it is asked for, so one
/// scratch serves plans of any kernel and length in turn, without
/// reallocating once it has met the largest — there is no length to get
/// wrong.
#[derive(Default)]
pub struct BatchScratch {
    /// The planes of the pair: the first block's `re` and `im`, then its
    /// partner's.
    planes: [Vec<f64>; 4],
    /// Where a lane waits as `Complex64`s while a kernel other than Stockham
    /// transforms it.
    line: Vec<Complex64>,
}

impl BatchScratch {
    /// Sized for the blocks of `plan`.
    pub fn for_plan(plan: &Plan1d) -> Self {
        let mut scratch = BatchScratch::default();
        scratch.pair(plan.len(), block_of(plan));
        scratch
    }

    /// The ping-pong pair as blocks of `lanes` lines of length `n`.
    pub(crate) fn pair(&mut self, n: usize, lanes: usize) -> (Block<'_>, Block<'_>) {
        let len = n * lanes;
        for plane in &mut self.planes {
            if plane.len() < len {
                plane.resize(len, 0.0);
            }
        }
        // Whole lines of one length by construction: no need for `Block::new`
        // to check it again for every block of a batch.
        let [re, im, partner_re, partner_im] = &mut self.planes;
        (
            Block {
                re: &mut re[..len],
                im: &mut im[..len],
                lanes,
            },
            Block {
                re: &mut partner_re[..len],
                im: &mut partner_im[..len],
                lanes,
            },
        )
    }
}

/// Are the lanes neighbours in memory (`at[l] = at[0] + l`)?
fn adjacent(at: &[usize]) -> bool {
    at.len() > 1 && at.windows(2).all(|w| w[1] == w[0] + 1)
}

/// The span of the `n` elements of the line starting at `start` — slicing
/// it out first makes an out-of-range line panic before anything is copied.
fn line_span(start: usize, stride: usize, n: usize) -> Range<usize> {
    start..start + (n - 1) * stride + 1
}

/// How the lines of a batch reach the block and leave it again: the
/// caller's half of [`run_blocks`]. Lines are numbered by the caller; a block
/// is a run of consecutive numbers.
pub trait BlockIo {
    /// Loads `lines` into `block`, the `l`-th of them as lane `l`
    /// (`block.lanes() = lines.len()`).
    fn gather(&mut self, lines: Range<usize>, block: &mut Block<'_>);

    /// Stores the transformed `lines` out of `block` (laid out as gathered).
    fn scatter(&mut self, lines: Range<usize>, block: &Block<'_>);

    /// `line` where it lies, when it is contiguous and may be handed to the
    /// kernel there: a block of one such line then skips gather and scatter.
    fn in_place(&mut self, _line: usize) -> Option<&mut [Complex64]> {
        None
    }
}

/// The lines of a buffer, transformed where they lie: line `l` starts at
/// `start_of(l)`, its `n` elements `stride` apart. Lanes that are neighbours
/// in memory move with one copy per `j`.
pub struct InPlace<'d, F> {
    data: &'d mut [Complex64],
    n: usize,
    stride: usize,
    start_of: F,
}

impl<'d, F: Fn(usize) -> usize> InPlace<'d, F> {
    /// The `n`-element lines of `data` that start at `start_of(l)`, elements
    /// `stride` apart. A line that exceeds `data` panics when it is touched.
    pub fn new(data: &'d mut [Complex64], n: usize, stride: usize, start_of: F) -> Self {
        InPlace {
            data,
            n,
            stride,
            start_of,
        }
    }

    /// The starts of `lines`, one per lane.
    fn starts(&self, lines: Range<usize>) -> ([usize; MAX_BLOCK], usize) {
        let mut at = [0usize; MAX_BLOCK];
        let lanes = lines.len();
        for (start, l) in at[..lanes].iter_mut().zip(lines) {
            *start = (self.start_of)(l);
        }
        (at, lanes)
    }
}

impl<F: Fn(usize) -> usize> BlockIo for InPlace<'_, F> {
    fn gather(&mut self, lines: Range<usize>, block: &mut Block<'_>) {
        let (at, lanes) = self.starts(lines);
        let (at, stride) = (&at[..lanes], self.stride);
        if adjacent(at) {
            block.load_rows(0..self.n, 0..lanes, self.data, at[0], stride);
        } else {
            for (l, &start) in at.iter().enumerate() {
                block.load_lane(l, &self.data[line_span(start, stride, self.n)], stride);
            }
        }
    }

    fn scatter(&mut self, lines: Range<usize>, block: &Block<'_>) {
        let (at, lanes) = self.starts(lines);
        let (at, stride) = (&at[..lanes], self.stride);
        if adjacent(at) {
            block.store_rows(0..self.n, 0..lanes, self.data, at[0], stride);
        } else {
            for (l, &start) in at.iter().enumerate() {
                let line = &mut self.data[line_span(start, stride, self.n)];
                block.store_lane(l, line, stride);
            }
        }
    }

    fn in_place(&mut self, line: usize) -> Option<&mut [Complex64]> {
        let start = (self.start_of)(line);
        (self.stride == 1).then(|| &mut self.data[start..start + self.n])
    }
}

/// The one block driver: transforms `lines` through `io`, a block of up to
/// [`block_lines`] of them at a time — gather, the plan's stages over the
/// block, scatter. Every batch entry point of the crate is this function
/// over an [`InPlace`]; a caller with a gather or scatter of its own (lines
/// assembled from another buffer, sums taken while the block is in cache)
/// passes its own [`BlockIo`].
pub fn run_blocks(
    plan: &Plan1d,
    lines: Range<usize>,
    io: &mut impl BlockIo,
    scratch: &mut BatchScratch,
) {
    let (n, per) = (plan.len(), block_of(plan));
    for first in lines.clone().step_by(per) {
        let lines = first..(first + per).min(lines.end);
        let lanes = lines.len();
        if lanes == 1 {
            if let Some(line) = io.in_place(first) {
                plan.execute(line, scratch);
                continue;
            }
        }
        let (mut block, mut partner) = scratch.pair(n, lanes);
        io.gather(lines.clone(), &mut block);
        let in_block = match plan.stockham() {
            Some(stockham) => stockham.execute_lanes(&mut block, &mut partner),
            None => {
                // The other kernels transform `Complex64`s: the lane leaves
                // the block for them and returns to it.
                let mut line = std::mem::take(&mut scratch.line);
                line.resize(n, Complex64::ZERO);
                scratch.pair(n, 1).0.store_lane(0, &mut line, 1);
                plan.execute(&mut line, scratch);
                scratch.pair(n, 1).0.load_lane(0, &line, 1);
                scratch.line = line;
                true
            }
        };
        let (block, partner) = scratch.pair(n, lanes);
        io.scatter(lines, if in_block { &block } else { &partner });
    }
}

/// The batch entry points' precondition on `layout` for `n`-length lines.
fn check_layout(data: &[Complex64], layout: BatchLayout, n: usize) {
    assert!(
        data.len() >= layout.required_len(n),
        "batch layout exceeds buffer: need {}, have {}",
        layout.required_len(n),
        data.len()
    );
    assert!(
        !lines_alias(layout, n),
        "batch lines would alias: {layout:?} with n = {n}"
    );
}

/// Executes `plan` over every line of `layout` inside `data`, in place.
///
/// # Panics
/// If `data` is too short for the layout, or any two lines overlap (or a
/// line self-overlaps) per [`lines_alias`].
pub fn execute_batch(
    plan: &Plan1d,
    data: &mut [Complex64],
    layout: BatchLayout,
    scratch: &mut BatchScratch,
) {
    check_layout(data, layout, plan.len());
    let mut io = InPlace::new(data, plan.len(), layout.stride, |l| l * layout.dist);
    run_blocks(plan, 0..layout.howmany, &mut io, scratch);
}

/// Executes `plan` over the rows `data[s..s + plan.len()]` for each `s` in
/// `starts` — the row-list form of [`execute_batch`], for lines that follow
/// no single `dist`. Rows may come in any order but must be pairwise
/// disjoint (overlapping rows give neither row's transform).
///
/// # Panics
/// If any row exceeds `data`.
pub fn execute_rows(
    plan: &Plan1d,
    data: &mut [Complex64],
    starts: &[usize],
    scratch: &mut BatchScratch,
) {
    let mut io = InPlace::new(data, plan.len(), 1, |l| starts[l]);
    run_blocks(plan, 0..starts.len(), &mut io, scratch);
}

/// Runs the first task on the calling thread — through `on_caller`, which
/// may therefore own state no worker shares — while every other task runs
/// `on_worker` on a spawned worker of its own: `k` tasks cost `k − 1`
/// spawns, and a single task none.
pub fn fork_join<T: Send>(
    tasks: Vec<T>,
    on_caller: impl FnOnce(T) + Send,
    on_worker: impl Fn(T) + Sync,
) {
    let mut tasks = tasks.into_iter();
    let Some(first) = tasks.next() else {
        return;
    };
    if tasks.len() == 0 {
        return on_caller(first);
    }
    let on_worker = &on_worker;
    // The scope joins every worker before it returns, which is what lets
    // the tasks borrow disjoint `&mut` parts of one buffer.
    std::thread::scope(|s| {
        for task in tasks {
            s.spawn(move || on_worker(task));
        }
        on_caller(first);
    });
}

/// One worker's share of a sorted row set.
pub struct RowRun<'d> {
    /// The region of the buffer that spans the worker's rows.
    pub data: &'d mut [Complex64],
    /// The worker's rows, by their number in the set.
    pub rows: Range<usize>,
    /// The region's offset in the buffer: the row starting at `s` is at
    /// `s − offset` within [`Self::data`].
    pub offset: usize,
}

/// Splits `rows` sorted, pairwise-disjoint rows of `data` — row `r` is
/// `data[start_of(r)..start_of(r) + n]` — into at most `threads` contiguous
/// runs, each with the non-overlapping `&mut` region of `data` that spans
/// it. Safety rests entirely on the sorted/disjoint precondition (asserted
/// below): run boundaries then carve `data` into disjoint regions via
/// `split_at_mut`, in safe code.
///
/// # Panics
/// If the rows are not sorted ascending with gaps of at least `n`, or any
/// row exceeds `data`.
pub fn split_rows(
    data: &mut [Complex64],
    n: usize,
    rows: usize,
    threads: usize,
    start_of: impl Fn(usize) -> usize,
) -> Vec<RowRun<'_>> {
    if rows == 0 || n == 0 {
        return Vec::new();
    }
    for r in 1..rows {
        let (a, b) = (start_of(r - 1), start_of(r));
        assert!(
            a + n <= b,
            "rows must be sorted and non-overlapping: [{a}, {}) vs [{b}, ..)",
            a + n
        );
    }
    let last = start_of(rows - 1);
    assert!(
        last + n <= data.len(),
        "row [{last}, {}) exceeds buffer of {}",
        last + n,
        data.len()
    );
    let per = rows.div_ceil(threads.clamp(1, rows));
    let mut rest: &mut [Complex64] = data;
    let mut consumed = 0usize;
    let mut runs = Vec::with_capacity(rows.div_ceil(per));
    for first in (0..rows).step_by(per) {
        let rows = first..(first + per).min(rows);
        let lo = start_of(rows.start);
        let hi = start_of(rows.end - 1) + n;
        let tail = std::mem::take(&mut rest);
        let (_, tail) = tail.split_at_mut(lo - consumed);
        let (mine, tail) = tail.split_at_mut(hi - lo);
        rest = tail;
        consumed = hi;
        runs.push(RowRun {
            data: mine,
            rows,
            offset: lo,
        });
    }
    runs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::max_abs_diff;
    use crate::dft::dft;
    use crate::planner::Planner;
    use crate::Direction;

    fn signal(len: usize) -> Vec<Complex64> {
        (0..len)
            .map(|j| Complex64::new((j as f64 * 0.13).sin(), (j as f64 * 0.29).cos()))
            .collect()
    }

    #[test]
    fn contiguous_batch_matches_per_line_dft() {
        let n = 24;
        let howmany = 5;
        let mut planner = Planner::new();
        let plan = planner.plan(n, Direction::Forward);
        let mut data = signal(n * howmany);
        let orig = data.clone();
        let mut scratch = BatchScratch::for_plan(&plan);
        execute_batch(
            &plan,
            &mut data,
            BatchLayout::contiguous(n, howmany),
            &mut scratch,
        );
        for l in 0..howmany {
            let want = dft(&orig[l * n..(l + 1) * n], Direction::Forward);
            assert!(max_abs_diff(&data[l * n..(l + 1) * n], &want) < 1e-9 * n as f64);
        }
    }

    #[test]
    fn strided_batch_matches_gathered_dft() {
        // Lines are the columns of a 6×8 row-major matrix: stride 8, dist 1.
        let (rows, cols) = (6usize, 8usize);
        let mut planner = Planner::new();
        let plan = planner.plan(rows, Direction::Forward);
        let mut data = signal(rows * cols);
        let orig = data.clone();
        let layout = BatchLayout {
            howmany: cols,
            stride: cols,
            dist: 1,
        };
        let mut scratch = BatchScratch::for_plan(&plan);
        execute_batch(&plan, &mut data, layout, &mut scratch);
        for c in 0..cols {
            let col: Vec<Complex64> = (0..rows).map(|r| orig[r * cols + c]).collect();
            let want = dft(&col, Direction::Forward);
            let got: Vec<Complex64> = (0..rows).map(|r| data[r * cols + c]).collect();
            assert!(max_abs_diff(&got, &want) < 1e-9 * rows as f64, "col={c}");
        }
    }

    #[test]
    fn required_len_formula() {
        let l = BatchLayout {
            howmany: 3,
            stride: 2,
            dist: 10,
        };
        assert_eq!(l.required_len(4), 2 * 10 + 3 * 2 + 1);
        assert_eq!(BatchLayout::contiguous(8, 0).required_len(8), 0);
    }

    #[test]
    #[should_panic(expected = "batch layout exceeds buffer")]
    fn short_buffer_is_rejected() {
        let mut planner = Planner::new();
        let plan = planner.plan(16, Direction::Forward);
        let mut data = signal(16);
        let mut scratch = BatchScratch::for_plan(&plan);
        execute_batch(
            &plan,
            &mut data,
            BatchLayout::contiguous(16, 2),
            &mut scratch,
        );
    }

    #[test]
    #[should_panic(expected = "alias")]
    fn aliasing_batch_is_rejected() {
        let mut planner = Planner::new();
        let plan = planner.plan(4, Direction::Forward);
        let mut data = signal(4);
        let mut scratch = BatchScratch::for_plan(&plan);
        execute_batch(
            &plan,
            &mut data,
            BatchLayout {
                howmany: 2,
                stride: 1,
                dist: 0,
            },
            &mut scratch,
        );
    }

    #[test]
    fn alias_formula_catches_interleaved_overlap() {
        // stride 2, dist 2: line 1 starts on line 0's second element.
        let l = BatchLayout {
            howmany: 2,
            stride: 2,
            dist: 2,
        };
        assert!(lines_alias(l, 4));
        // stride 2, dist 3: lines 0 and 2 share offset 6 once n ≥ 4.
        let l = BatchLayout {
            howmany: 3,
            stride: 2,
            dist: 3,
        };
        assert!(lines_alias(l, 4));
        // …but with only two lines the offsets are odd-vs-even: legal.
        let l = BatchLayout {
            howmany: 2,
            stride: 2,
            dist: 3,
        };
        assert!(!lines_alias(l, 4));
        // Matrix columns (stride = cols, dist = 1) never alias.
        let l = BatchLayout {
            howmany: 8,
            stride: 8,
            dist: 1,
        };
        assert!(!lines_alias(l, 6));
        // Zero stride revisits one offset within a single line.
        let l = BatchLayout {
            howmany: 1,
            stride: 0,
            dist: 1,
        };
        assert!(lines_alias(l, 2));
        assert!(!lines_alias(l, 1));
        // Contiguous lines are always fine.
        assert!(!lines_alias(BatchLayout::contiguous(16, 50), 16));
    }

    #[test]
    #[should_panic(expected = "alias")]
    fn interleaved_overlapping_batch_is_rejected() {
        let mut planner = Planner::new();
        let plan = planner.plan(4, Direction::Forward);
        // required_len = 2·4 + 3·2 + 1 = 15; lines 0 and 1 share offset 4.
        let mut data = signal(15);
        let mut scratch = BatchScratch::for_plan(&plan);
        execute_batch(
            &plan,
            &mut data,
            BatchLayout {
                howmany: 3,
                stride: 2,
                dist: 4,
            },
            &mut scratch,
        );
    }

    /// The rows of one run, transformed in place on whichever thread owns
    /// it — what the executor makes of [`split_rows`] + [`fork_join`].
    fn rows_threaded(plan: &Plan1d, data: &mut [Complex64], starts: &[usize], threads: usize) {
        let run = |run: RowRun<'_>| {
            let local: Vec<usize> = run.rows.map(|r| starts[r] - run.offset).collect();
            execute_rows(plan, run.data, &local, &mut BatchScratch::for_plan(plan));
        };
        let runs = split_rows(data, plan.len(), starts.len(), threads, |r| starts[r]);
        fork_join(runs, run, run);
    }

    #[test]
    fn split_rows_handles_gaps() {
        // Rows with a hole between them: untouched elements must survive.
        let n = 16;
        let mut planner = Planner::new();
        let plan = planner.plan(n, Direction::Forward);
        let mut data = signal(3 * n);
        let orig = data.clone();
        rows_threaded(&plan, &mut data, &[0, 2 * n], 4);
        for (j, (got, was)) in data[n..2 * n].iter().zip(&orig[n..2 * n]).enumerate() {
            assert_eq!(
                got.re.to_bits(),
                was.re.to_bits(),
                "gap element {j} touched"
            );
            assert_eq!(
                got.im.to_bits(),
                was.im.to_bits(),
                "gap element {j} touched"
            );
        }
        let want = dft(&orig[0..n], Direction::Forward);
        assert!(max_abs_diff(&data[0..n], &want) < 1e-9 * n as f64);
    }

    #[test]
    #[should_panic(expected = "sorted and non-overlapping")]
    fn split_rows_rejects_overlapping_rows() {
        let mut planner = Planner::new();
        let plan = planner.plan(8, Direction::Forward);
        rows_threaded(&plan, &mut signal(16), &[0, 4], 2);
    }

    /// An io whose gather reads one buffer and whose scatter writes another:
    /// what a caller that fuses a copy into the transform passes.
    struct Across<'a> {
        from: &'a [Complex64],
        to: &'a mut [Complex64],
        n: usize,
        gathered: Vec<Range<usize>>,
    }

    impl BlockIo for Across<'_> {
        fn gather(&mut self, lines: Range<usize>, block: &mut Block<'_>) {
            for (l, line) in lines.clone().enumerate() {
                block.load_lane(l, &self.from[line * self.n..][..self.n], 1);
            }
            self.gathered.push(lines);
        }

        fn scatter(&mut self, lines: Range<usize>, block: &Block<'_>) {
            for (l, line) in lines.enumerate() {
                block.store_lane(l, &mut self.to[line * self.n..][..self.n], 1);
            }
        }
    }

    #[test]
    fn a_callers_gather_and_scatter_see_the_same_blocks_and_bits() {
        let mut planner = Planner::new();
        // 12 → Stockham (blocks of 16), 74 → Bluestein (blocks of one).
        for n in [12usize, 74] {
            let plan = planner.plan(n, Direction::Forward);
            let per = block_of(&plan);
            let howmany = 2 * per + 3;
            let from = signal(n * (howmany + 2));
            let mut want = from.clone();
            let mut scratch = BatchScratch::for_plan(&plan);
            execute_batch(
                &plan,
                &mut want,
                BatchLayout::contiguous(n, howmany + 2),
                &mut scratch,
            );
            // Lines 1..=howmany: a range that does not start at zero.
            let mut to = vec![Complex64::ZERO; from.len()];
            let mut io = Across {
                from: &from,
                to: &mut to,
                n,
                gathered: Vec::new(),
            };
            run_blocks(&plan, 1..howmany + 1, &mut io, &mut scratch);
            let blocks: Vec<Range<usize>> = (1..howmany + 1)
                .step_by(per)
                .map(|first| first..(first + per).min(howmany + 1))
                .collect();
            assert_eq!(io.gathered, blocks, "n={n}");
            assert_eq!(
                bits(&to[n..n * (howmany + 1)]),
                bits(&want[n..n * (howmany + 1)])
            );
            // The lines outside the range were neither read nor written.
            assert!(to[..n]
                .iter()
                .chain(&to[n * (howmany + 1)..])
                .all(|v| *v == Complex64::ZERO));
        }
    }

    #[test]
    fn zero_lines_is_a_no_op() {
        let mut planner = Planner::new();
        let plan = planner.plan(8, Direction::Forward);
        let mut data: Vec<Complex64> = vec![];
        let mut scratch = BatchScratch::for_plan(&plan);
        execute_batch(
            &plan,
            &mut data,
            BatchLayout::contiguous(8, 0),
            &mut scratch,
        );
    }

    fn bits(v: &[Complex64]) -> Vec<(u64, u64)> {
        v.iter().map(|z| (z.re.to_bits(), z.im.to_bits())).collect()
    }

    /// Per-line reference: gather, `Plan1d::execute`, scatter.
    fn per_line(plan: &Plan1d, data: &mut [Complex64], starts: &[usize], stride: usize) {
        let n = plan.len();
        let mut scratch = BatchScratch::default();
        for &s in starts {
            let mut line: Vec<Complex64> = (0..n).map(|j| data[s + j * stride]).collect();
            plan.execute(&mut line, &mut scratch);
            for (j, v) in line.into_iter().enumerate() {
                data[s + j * stride] = v;
            }
        }
    }

    #[test]
    fn block_lines_is_bounded_and_never_zero() {
        for n in [1usize, 2, 64, 96, 128, 129, 2048, 2049, 1 << 20] {
            let b = block_lines(n);
            assert!((1..=MAX_BLOCK).contains(&b), "n={n} B={b}");
            assert!(b == 1 || n * b <= BLOCK_ELEMS, "n={n} B={b}");
        }
        assert_eq!(block_lines(128), 16);
    }

    #[test]
    fn blocks_equal_per_line_execution_bitwise_for_every_remainder() {
        let mut planner = Planner::new();
        for (n, dir) in [(12usize, Direction::Forward), (64, Direction::Backward)] {
            let plan = planner.plan(n, dir);
            let b = block_lines(n);
            let mut scratch = BatchScratch::for_plan(&plan);
            for howmany in [1, 2, b - 1, b, b + 1, 2 * b + 3] {
                // Contiguous lines.
                let layout = BatchLayout::contiguous(n, howmany);
                let mut got = signal(layout.required_len(n));
                let mut want = got.clone();
                execute_batch(&plan, &mut got, layout, &mut scratch);
                let starts: Vec<usize> = (0..howmany).map(|l| l * n).collect();
                per_line(&plan, &mut want, &starts, 1);
                assert_eq!(
                    bits(&got),
                    bits(&want),
                    "contiguous n={n} howmany={howmany}"
                );

                // Matrix columns: the lanes are neighbours in memory.
                let layout = BatchLayout {
                    howmany,
                    stride: howmany,
                    dist: 1,
                };
                let mut got = signal(layout.required_len(n));
                let mut want = got.clone();
                execute_batch(&plan, &mut got, layout, &mut scratch);
                let starts: Vec<usize> = (0..howmany).collect();
                per_line(&plan, &mut want, &starts, howmany);
                assert_eq!(bits(&got), bits(&want), "columns n={n} howmany={howmany}");
            }
        }
    }

    #[test]
    fn row_list_takes_unsorted_rows_with_gaps() {
        let n = 30;
        let mut planner = Planner::new();
        let plan = planner.plan(n, Direction::Forward);
        let rows = 2 * block_lines(n) + 1;
        // Every other row slot, visited in a scrambled order.
        let starts: Vec<usize> = (0..rows).map(|i| (i * 7 % rows) * 2 * n).collect();
        let mut got = signal(2 * n * rows);
        let mut want = got.clone();
        let mut scratch = BatchScratch::for_plan(&plan);
        execute_rows(&plan, &mut got, &starts, &mut scratch);
        per_line(&plan, &mut want, &starts, 1);
        assert_eq!(bits(&got), bits(&want));
    }

    #[test]
    fn non_stockham_plans_go_line_by_line_through_the_same_entry() {
        let mut planner = Planner::new();
        // 3 → naive, 74 → Bluestein.
        for n in [3usize, 74] {
            let plan = planner.plan(n, Direction::Forward);
            assert_ne!(plan.strategy(), crate::planner::Strategy::MixedRadix);
            let layout = BatchLayout {
                howmany: 5,
                stride: 5,
                dist: 1,
            };
            let mut got = signal(layout.required_len(n));
            let mut want = got.clone();
            let mut scratch = BatchScratch::for_plan(&plan);
            execute_batch(&plan, &mut got, layout, &mut scratch);
            per_line(&plan, &mut want, &[0, 1, 2, 3, 4], 5);
            assert_eq!(bits(&got), bits(&want), "n={n}");
        }
    }

    /// No scratch can be too short for a plan: one default scratch serves
    /// every kernel at mixed lengths in turn, growing as it goes, through the
    /// per-line call and the batch alike.
    #[test]
    fn one_scratch_serves_plans_of_several_lengths() {
        use crate::planner::Strategy::{Bluestein, MixedRadix, Naive};
        let mut planner = Planner::new();
        let mut scratch = BatchScratch::default();
        let mut kernels = std::collections::HashSet::new();
        // Lengths that shrink and grow again.
        let plans = [8usize, 74, 128, 3, 5, 2 * 997, 96, 4]
            .map(|n| planner.plan(n, Direction::Forward))
            .into_iter()
            .chain([17, 8, 257].map(|n| planner.plan(n, Direction::Backward)));
        for plan in plans {
            let n = plan.len();
            kernels.insert(plan.strategy());
            let layout = BatchLayout::contiguous(n, 20);
            let mut got = signal(20 * n);
            let mut want = got.clone();
            execute_batch(&plan, &mut got, layout, &mut scratch);
            execute_batch(&plan, &mut want, layout, &mut BatchScratch::for_plan(&plan));
            assert_eq!(bits(&got), bits(&want), "batch n={n}");

            let mut line = signal(n);
            plan.execute(&mut line, &mut scratch);
            let want = dft(&signal(n), plan.direction());
            assert!(max_abs_diff(&line, &want) < 1e-8 * n as f64, "line n={n}");
        }
        for kernel in [Naive, MixedRadix, Bluestein] {
            assert!(kernels.contains(&kernel), "{kernel:?} not exercised");
        }
    }

    fn planes(len: usize) -> (Vec<f64>, Vec<f64>) {
        (vec![f64::NAN; len], vec![f64::NAN; len])
    }

    #[test]
    fn gather_then_scatter_is_the_identity_for_every_lane_count() {
        let n = 7;
        for lanes in 1..=MAX_BLOCK {
            let (mut re, mut im) = planes(n * lanes);
            // Neighbouring lanes (matrix columns, with columns to spare).
            let cols = lanes + 2;
            let src = signal(n * cols);
            let mut dst = vec![Complex64::ZERO; src.len()];
            let mut block = Block::new(&mut re, &mut im, lanes);
            InPlace::new(&mut src.clone(), n, cols, |l| 1 + l).gather(0..lanes, &mut block);
            for j in 0..n {
                for l in 0..lanes {
                    let at = j * lanes + l;
                    let got = Complex64::new(block.re[at], block.im[at]);
                    assert_eq!(bits(&[got]), bits(&[src[j * cols + 1 + l]]));
                }
            }
            InPlace::new(&mut dst, n, cols, |l| 1 + l).scatter(0..lanes, &block);
            for (i, (got, was)) in dst.iter().zip(&src).enumerate() {
                let moved = (1..=lanes).contains(&(i % cols));
                let want = if moved { *was } else { Complex64::ZERO };
                assert_eq!(bits(&[*got]), bits(&[want]), "lanes={lanes} i={i}");
            }

            // Scattered lanes: every other row slot, visited backwards.
            let slot = n + 3;
            let start_of = |l: usize| 2 * (lanes - 1 - l) * slot;
            let src = signal(2 * lanes * slot);
            let mut dst = vec![Complex64::ZERO; src.len()];
            let (mut re, mut im) = planes(n * lanes);
            let mut block = Block::new(&mut re, &mut im, lanes);
            InPlace::new(&mut src.clone(), n, 1, start_of).gather(0..lanes, &mut block);
            InPlace::new(&mut dst, n, 1, start_of).scatter(0..lanes, &block);
            for (i, (got, was)) in dst.iter().zip(&src).enumerate() {
                let moved = i / slot % 2 == 0 && i % slot < n;
                let want = if moved { *was } else { Complex64::ZERO };
                assert_eq!(bits(&[*got]), bits(&[want]), "lanes={lanes} i={i}");
            }
        }
    }

    #[test]
    fn rows_and_lanes_address_the_same_elements() {
        let (n, lanes) = (5, 6);
        let (mut re, mut im) = planes(n * lanes);
        let mut block = Block::new(&mut re, &mut im, lanes);
        assert_eq!((block.lanes(), block.line_len()), (lanes, n));
        let lines = signal(n * lanes);
        // Lanes 0..2 by strided line, lanes 2..6 by rows of four — the
        // first two rows, then the rest.
        for l in 0..2 {
            block.load_lane(l, &lines[l..], lanes);
        }
        block.load_rows(0..2, 2..6, &lines, 2, lanes);
        block.load_rows(2..n, 2..6, &lines, 2 * lanes + 2, lanes);
        let mut rows = vec![Complex64::ZERO; n * lanes];
        block.store_rows(0..n, 0..lanes, &mut rows, 0, lanes);
        assert_eq!(bits(&rows), bits(&lines));
        // A run of lanes of a run of rows, into rows three apart.
        let mut part = vec![Complex64::ZERO; 3 * 3];
        block.store_rows(1..4, 3..5, &mut part, 0, 3);
        for (k, j) in (1..4).enumerate() {
            let want = [lines[j * lanes + 3], lines[j * lanes + 4], Complex64::ZERO];
            assert_eq!(bits(&part[3 * k..][..3]), bits(&want));
        }
        let mut by_lane = vec![Complex64::ZERO; n * lanes];
        for l in 0..lanes {
            block.store_lane(l, &mut by_lane[l..], lanes);
        }
        assert_eq!(bits(&by_lane), bits(&lines));
    }

    #[test]
    fn lane_sums_add_the_lanes_in_order_to_the_bit() {
        let n = 9;
        for lanes in [1usize, 2, 7, MAX_BLOCK] {
            let lines = signal(n * lanes);
            let (mut re, mut im) = planes(n * lanes);
            let mut block = Block::new(&mut re, &mut im, lanes);
            for l in 0..lanes {
                block.load_lane(l, &lines[l * n..][..n], 1);
            }
            // The slab sweep: every line added to the checksum line in turn.
            let mut want = vec![Complex64::ZERO; n];
            for line in lines.chunks_exact(n) {
                for (acc, v) in want.iter_mut().zip(line) {
                    *acc += *v;
                }
            }
            let mut got = vec![Complex64::ZERO; n];
            block.add_lane_sums(&mut got);
            assert_eq!(bits(&got), bits(&want), "lanes={lanes}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn row_past_the_buffer_is_rejected() {
        let mut planner = Planner::new();
        let plan = planner.plan(8, Direction::Forward);
        let mut data = signal(20);
        let mut scratch = BatchScratch::for_plan(&plan);
        execute_rows(&plan, &mut data, &[0, 8, 16], &mut scratch);
    }
}
