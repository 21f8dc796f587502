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
//! A block is up to `B =` [`block_lines`]`(n)` lines gathered into a scratch
//! buffer *interleaved*, line `l`'s element `j` at `buf[j·B + l]`; the
//! Stockham stages of [`crate::mixed`] run over all `B` lanes at once,
//! ping-ponging between two such buffers, and the result is scattered back
//! from whichever buffer holds it. Whatever the layout, the transform itself
//! therefore runs on the same cache-resident interleaved block, so a strided
//! batch costs what a contiguous one does; when the lanes are neighbours in
//! memory (`dist = 1`, the columns of a matrix) gather and scatter are one
//! `B`-element copy per `j`. A block of one unit-stride line runs in place,
//! and plans whose kernel is not Stockham (naive, in-place radix-2,
//! Bluestein, Rader) take the same path with blocks of one line.
//!
//! Blocking never changes a result: each lane meets exactly the arithmetic
//! it meets alone (see [`crate::mixed`]), so the output is bit-identical to
//! per-line [`Plan1d::execute`] for every `B`, block remainder and thread
//! count.

use crate::complex::Complex64;
use crate::planner::Plan1d;

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
const MAX_BLOCK: usize = 16;

/// Elements one block buffer may hold: two of them (the ping-pong pair,
/// 16 bytes an element) are 64 KiB, which stays in L2 and — for the short
/// lines, whose stages make the most passes per byte — mostly in L1.
const BLOCK_ELEMS: usize = 2048;

/// Lines of length `n` transformed together as one block: as many as fit
/// [`BLOCK_ELEMS`], at most [`MAX_BLOCK`] (beyond that the stage loops are
/// long enough and only the footprint grows), at least one. Derived from
/// `n` alone — results do not depend on it, so it is not a tuning parameter.
pub fn block_lines(n: usize) -> usize {
    (BLOCK_ELEMS / n.max(1)).clamp(1, MAX_BLOCK)
}

/// Block size `plan` runs with: only the Stockham kernel takes lanes.
fn block_of(plan: &Plan1d) -> usize {
    plan.stockham().map_or(1, |_| block_lines(plan.len()))
}

/// Scratch for the batch entry points. Grows to fit whichever plan it is
/// used with, so one scratch can serve plans of several lengths in turn
/// without reallocating once it has met the largest.
#[derive(Default)]
pub struct BatchScratch {
    /// The gathered block, lanes interleaved (for a block of one line: the
    /// strided line's bounce buffer).
    block: Vec<Complex64>,
    /// Stockham plans: the block's ping-pong partner. Other kernels: the
    /// plan's own scratch.
    partner: Vec<Complex64>,
}

impl BatchScratch {
    /// Sized for `plan`.
    pub fn for_plan(plan: &Plan1d) -> Self {
        let mut scratch = BatchScratch::default();
        scratch.fit(plan);
        scratch
    }

    fn fit(&mut self, plan: &Plan1d) {
        let block = plan.len() * block_of(plan);
        let partner = match plan.stockham() {
            Some(_) => block,
            None => plan.scratch_len(),
        };
        if self.block.len() < block {
            self.block.resize(block, Complex64::ZERO);
        }
        if self.partner.len() < partner {
            self.partner.resize(partner, Complex64::ZERO);
        }
    }
}

/// Are the lanes neighbours in memory (`at[l] = at[0] + l`)?
fn adjacent(at: &[usize]) -> bool {
    at.len() > 1 && at.windows(2).all(|w| w[1] == w[0] + 1)
}

/// The span of the `n` elements of the line starting at `start` — slicing
/// it out first makes an out-of-range line panic before anything is copied.
fn line_span(start: usize, stride: usize, n: usize) -> std::ops::Range<usize> {
    start..start + (n - 1) * stride + 1
}

/// Interleaves the block's lines: `block[j·B + l] = data[at[l] + j·stride]`.
fn gather(data: &[Complex64], at: &[usize], stride: usize, n: usize, block: &mut [Complex64]) {
    let lanes = at.len();
    if adjacent(at) {
        for (j, row) in block.chunks_exact_mut(lanes).enumerate() {
            let s = at[0] + j * stride;
            row.copy_from_slice(&data[s..s + lanes]);
        }
    } else {
        for (l, &start) in at.iter().enumerate() {
            let line = &data[line_span(start, stride, n)];
            let lane = &mut block[l..];
            for j in 0..n {
                lane[j * lanes] = line[j * stride];
            }
        }
    }
}

/// Inverse of [`gather`]: `data[at[l] + j·stride] = block[j·B + l]`.
fn scatter(block: &[Complex64], data: &mut [Complex64], at: &[usize], stride: usize, n: usize) {
    let lanes = at.len();
    if adjacent(at) {
        for (j, row) in block.chunks_exact(lanes).enumerate() {
            let s = at[0] + j * stride;
            data[s..s + lanes].copy_from_slice(row);
        }
    } else {
        for (l, &start) in at.iter().enumerate() {
            let line = &mut data[line_span(start, stride, n)];
            let lane = &block[l..];
            for j in 0..n {
                line[j * stride] = lane[j * lanes];
            }
        }
    }
}

/// Transforms one block: the lines starting at `at[..]`, elements `stride`
/// apart. `scratch` already fits `plan`, and `at.len() ≤ block_of(plan)`.
fn run_block(
    plan: &Plan1d,
    data: &mut [Complex64],
    at: &[usize],
    stride: usize,
    scratch: &mut BatchScratch,
) {
    let n = plan.len();
    let lanes = at.len();
    if lanes == 1 && stride == 1 {
        plan.execute(&mut data[at[0]..at[0] + n], &mut scratch.partner);
        return;
    }
    let block = &mut scratch.block[..n * lanes];
    gather(data, at, stride, n, block);
    let result = match plan.stockham() {
        Some(stockham) => {
            let partner = &mut scratch.partner[..n * lanes];
            if stockham.execute_lanes(block, partner, lanes) {
                block
            } else {
                partner
            }
        }
        None => {
            plan.execute(block, &mut scratch.partner);
            block
        }
    };
    scatter(result, data, at, stride, n);
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

/// The one block driver: transforms the `howmany` lines starting at
/// `start_of(0..howmany)`, elements `stride` apart, a block at a time.
fn run_lines(
    plan: &Plan1d,
    data: &mut [Complex64],
    howmany: usize,
    stride: usize,
    start_of: impl Fn(usize) -> usize,
    scratch: &mut BatchScratch,
) {
    scratch.fit(plan);
    let block = block_of(plan);
    let mut at = [0usize; MAX_BLOCK];
    for first in (0..howmany).step_by(block) {
        let lanes = block.min(howmany - first);
        for (l, start) in at[..lanes].iter_mut().enumerate() {
            *start = start_of(first + l);
        }
        run_block(plan, data, &at[..lanes], stride, scratch);
    }
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
    run_lines(
        plan,
        data,
        layout.howmany,
        layout.stride,
        |l| l * layout.dist,
        scratch,
    );
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
    run_lines(plan, data, starts.len(), 1, |l| starts[l], scratch);
}

/// Runs the first task on the calling thread — through `on_caller`, which
/// may therefore own state no worker shares — while every other task runs
/// `on_worker` on a spawned worker of its own: `k` tasks cost `k − 1`
/// spawns, and a single task none.
fn fork_join<T: Send>(
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
    rayon::scope(|s| {
        for task in tasks {
            s.spawn(move |_| on_worker(task));
        }
        on_caller(first);
    });
}

/// One worker's share of a row set: its region of the buffer, its rows, and
/// the region's offset in the buffer (row `r` is at `r − offset` within it).
type RowChunk<'d, 'r, M> = (&'d mut [Complex64], &'r [M], usize);

/// Splits sorted, pairwise-disjoint rows of `data` into at most `threads`
/// contiguous groups, each with the non-overlapping `&mut` region of `data`
/// that spans its rows.
///
/// `start_of` extracts a row's first offset from its descriptor; row `r`
/// occupies `data[start_of(r)..start_of(r) + n]`. Safety rests entirely on
/// the sorted/disjoint precondition (asserted below): group boundaries then
/// carve `data` into disjoint regions via `split_at_mut`, in safe code.
fn split_rows<'d, 'r, M>(
    data: &'d mut [Complex64],
    n: usize,
    rows: &'r [M],
    threads: usize,
    start_of: impl Fn(&M) -> usize,
) -> Vec<RowChunk<'d, 'r, M>> {
    if rows.is_empty() || n == 0 {
        return Vec::new();
    }
    for w in rows.windows(2) {
        let (a, b) = (start_of(&w[0]), start_of(&w[1]));
        assert!(
            a + n <= b,
            "rows must be sorted and non-overlapping: [{a}, {}) vs [{b}, ..)",
            a + n
        );
    }
    let last = start_of(&rows[rows.len() - 1]);
    assert!(
        last + n <= data.len(),
        "row [{last}, {}) exceeds buffer of {}",
        last + n,
        data.len()
    );
    let nchunks = threads.clamp(1, rows.len());
    let per = rows.len().div_ceil(nchunks);
    let mut rest: &mut [Complex64] = data;
    let mut consumed = 0usize;
    let mut tasks = Vec::with_capacity(nchunks);
    for chunk in rows.chunks(per) {
        let lo = start_of(&chunk[0]);
        let hi = start_of(&chunk[chunk.len() - 1]) + n;
        let tail = std::mem::take(&mut rest);
        let (_, tail) = tail.split_at_mut(lo - consumed);
        let (mine, tail) = tail.split_at_mut(hi - lo);
        rest = tail;
        consumed = hi;
        tasks.push((mine, chunk, lo));
    }
    tasks
}

/// [`execute_rows`] over sorted rows, spreading contiguous groups of rows
/// over up to `threads` workers. The calling thread takes the first group
/// with the caller's `scratch`; every other worker creates its own — scratch
/// is never shared — so the per-row arithmetic is identical to the
/// sequential path and the output is bit-identical for every thread count.
///
/// # Panics
/// If `starts` is not sorted ascending with gaps of at least `plan.len()`,
/// or any row exceeds `data`.
pub fn execute_lines_threaded(
    plan: &Plan1d,
    data: &mut [Complex64],
    starts: &[usize],
    threads: usize,
    scratch: &mut BatchScratch,
) {
    let run = |(slice, chunk, lo): RowChunk<usize>, scratch: &mut BatchScratch| {
        run_lines(plan, slice, chunk.len(), 1, |l| chunk[l] - lo, scratch);
    };
    fork_join(
        split_rows(data, plan.len(), starts, threads, |&s| s),
        |task| run(task, scratch),
        |task| run(task, &mut BatchScratch::for_plan(plan)),
    );
}

/// Runs `f` over sorted, pairwise-disjoint rows of `data` — row `i` is
/// `data[rows[i].0..rows[i].0 + n]`, and `f` also receives the row's
/// metadata `rows[i].1` — spreading contiguous groups of rows over up to
/// `threads` workers. This is the parallel backbone of the pipeline's
/// Unpack step: metadata carries the `(z, y)` coordinates a row needs to
/// locate its source elements in a shared receive buffer.
///
/// # Panics
/// If rows are not sorted ascending with gaps of at least `n`, or any row
/// exceeds `data`.
pub fn for_each_row_threaded<M: Sync>(
    data: &mut [Complex64],
    n: usize,
    rows: &[(usize, M)],
    threads: usize,
    f: impl Fn(&mut [Complex64], &M) + Sync,
) {
    let run = |(slice, chunk, lo): RowChunk<(usize, M)>| {
        for (s, meta) in chunk {
            let r = s - lo;
            f(&mut slice[r..r + n], meta);
        }
    };
    fork_join(split_rows(data, n, rows, threads, |row| row.0), run, run);
}

/// Splits `data` at `bounds` into the parts `data[bounds[i]..bounds[i + 1]]`
/// and runs `f(i, part)` for each, spreading contiguous groups of parts over
/// up to `threads` workers. This is the parallel backbone of the pipeline's
/// Pack step: `bounds` are the per-destination-rank displacements into the
/// send buffer, so each worker owns whole destination blocks.
///
/// # Panics
/// If `bounds` is not sorted ascending or exceeds `data`.
pub fn for_each_part_threaded(
    data: &mut [Complex64],
    bounds: &[usize],
    threads: usize,
    f: impl Fn(usize, &mut [Complex64]) + Sync,
) {
    let nparts = bounds.len().saturating_sub(1);
    if nparts == 0 {
        return;
    }
    for w in bounds.windows(2) {
        assert!(w[0] <= w[1], "bounds must be sorted: {} > {}", w[0], w[1]);
    }
    assert!(
        bounds[nparts] <= data.len(),
        "bounds exceed buffer: {} > {}",
        bounds[nparts],
        data.len()
    );
    let per = nparts.div_ceil(threads.clamp(1, nparts));
    let mut rest: &mut [Complex64] = data;
    let mut consumed = 0usize;
    let mut tasks: Vec<(&mut [Complex64], usize, usize)> = Vec::new();
    for first in (0..nparts).step_by(per) {
        let count = per.min(nparts - first);
        let (lo, hi) = (bounds[first], bounds[first + count]);
        let tail = std::mem::take(&mut rest);
        let (_, tail) = tail.split_at_mut(lo - consumed);
        let (mine, tail) = tail.split_at_mut(hi - lo);
        rest = tail;
        consumed = hi;
        tasks.push((mine, first, count));
    }
    let run = |(slice, first, count): (&mut [Complex64], usize, usize)| {
        let base = bounds[first];
        for p in first..first + count {
            f(p, &mut slice[bounds[p] - base..bounds[p + 1] - base]);
        }
    };
    fork_join(tasks, run, run);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::max_abs_diff;
    use crate::dft::dft;
    use crate::planner::{Planner, Rigor};
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
        let mut planner = Planner::new(Rigor::Estimate);
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
        let mut planner = Planner::new(Rigor::Estimate);
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
        let mut planner = Planner::new(Rigor::Estimate);
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
        let mut planner = Planner::new(Rigor::Estimate);
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
        let mut planner = Planner::new(Rigor::Estimate);
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

    #[test]
    fn execute_lines_threaded_handles_gaps() {
        // Rows with a hole between them: untouched elements must survive.
        let n = 16;
        let mut planner = Planner::new(Rigor::Estimate);
        let plan = planner.plan(n, Direction::Forward);
        let mut data = signal(3 * n);
        let orig = data.clone();
        let starts = [0, 2 * n];
        let mut scratch = BatchScratch::for_plan(&plan);
        execute_lines_threaded(&plan, &mut data, &starts, 4, &mut scratch);
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
    fn execute_lines_threaded_rejects_overlapping_rows() {
        let mut planner = Planner::new(Rigor::Estimate);
        let plan = planner.plan(8, Direction::Forward);
        let mut data = signal(16);
        let mut scratch = BatchScratch::for_plan(&plan);
        execute_lines_threaded(&plan, &mut data, &[0, 4], 2, &mut scratch);
    }

    #[test]
    fn for_each_part_threaded_matches_sequential() {
        let mut seq: Vec<Complex64> = signal(40);
        let mut par = seq.clone();
        let bounds = [0usize, 7, 7, 19, 40];
        let bump = |i: usize, part: &mut [Complex64]| {
            for (j, v) in part.iter_mut().enumerate() {
                *v = Complex64::new(v.re + i as f64, v.im + j as f64);
            }
        };
        for i in 0..bounds.len() - 1 {
            bump(i, &mut seq[bounds[i]..bounds[i + 1]]);
        }
        for_each_part_threaded(&mut par, &bounds, 3, bump);
        assert!(seq
            .iter()
            .zip(&par)
            .all(|(a, b)| a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits()));
    }

    #[test]
    fn for_each_row_threaded_passes_metadata() {
        let n = 4;
        let mut data = vec![Complex64::ZERO; 3 * n];
        let rows = [(0usize, 10.0f64), (n, 20.0), (2 * n, 30.0)];
        for_each_row_threaded(&mut data, n, &rows, 2, |row, &tag| {
            for (j, v) in row.iter_mut().enumerate() {
                *v = Complex64::new(tag, j as f64);
            }
        });
        for (s, tag) in rows {
            for j in 0..n {
                assert_eq!(data[s + j], Complex64::new(tag, j as f64));
            }
        }
    }

    #[test]
    fn zero_lines_is_a_no_op() {
        let mut planner = Planner::new(Rigor::Estimate);
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
        let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
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
        let mut planner = Planner::new(Rigor::Estimate);
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
        let mut planner = Planner::new(Rigor::Estimate);
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
        let mut planner = Planner::new(Rigor::Estimate);
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

    #[test]
    fn one_scratch_serves_plans_of_several_lengths() {
        let mut planner = Planner::new(Rigor::Estimate);
        let mut scratch = BatchScratch::default();
        for n in [8usize, 74, 128, 5, 96] {
            let plan = planner.plan(n, Direction::Forward);
            let layout = BatchLayout::contiguous(n, 20);
            let mut got = signal(20 * n);
            let mut want = got.clone();
            execute_batch(&plan, &mut got, layout, &mut scratch);
            execute_batch(&plan, &mut want, layout, &mut BatchScratch::for_plan(&plan));
            assert_eq!(bits(&got), bits(&want), "n={n}");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn row_past_the_buffer_is_rejected() {
        let mut planner = Planner::new(Rigor::Estimate);
        let plan = planner.plan(8, Direction::Forward);
        let mut data = signal(20);
        let mut scratch = BatchScratch::for_plan(&plan);
        execute_rows(&plan, &mut data, &[0, 8, 16], &mut scratch);
    }
}
