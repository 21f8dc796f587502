//! The lane-blocked kernel's contract, pinned where tier-1 runs it: a batch
//! executed a block of lines at a time (`cfft::batch`) equals per-line
//! `Plan1d::execute` **bit for bit** — for every length class (Stockham of
//! every radix, naive, Bluestein, and whatever a measuring planner picks at
//! a prime or a power of two), direction, block remainder and layout — and
//! the permute-free `fft3_serial` built on it equals a per-line
//! gather/execute/scatter of the same plans bit for bit.

use cfft::batch::{
    block_lines, execute_batch, execute_rows, fork_join, split_rows, BatchLayout, BatchScratch,
    RowRun,
};
use cfft::complex::max_abs_diff;
use cfft::dft::dft;
use cfft::planner::{Plan1d, Rigor, Strategy};
use cfft::{Complex64, Direction, PlanCache};
use fft3d::serial::{fft3_serial, full_test_array};

const DIRECTIONS: [Direction; 2] = [Direction::Forward, Direction::Backward];

fn signal(len: usize) -> Vec<Complex64> {
    (0..len)
        .map(|j| Complex64::new((j as f64 * 0.13).sin(), (j as f64 * 0.29).cos() - 0.2))
        .collect()
}

fn assert_bitwise(got: &[Complex64], want: &[Complex64], what: &str) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.re.to_bits() == w.re.to_bits() && g.im.to_bits() == w.im.to_bits(),
            "{what}: element {i} differs: {g:?} vs {w:?}"
        );
    }
}

fn line_of(data: &[Complex64], start: usize, stride: usize, n: usize) -> Vec<Complex64> {
    (0..n).map(|j| data[start + j * stride]).collect()
}

/// The reference: every line gathered, run alone through `Plan1d::execute`,
/// and scattered back — and checked against the O(n²) definition on the way.
fn per_line(plan: &Plan1d, data: &mut [Complex64], starts: &[usize], stride: usize) {
    let n = plan.len();
    let mut scratch = vec![Complex64::ZERO; plan.scratch_len()];
    for &s in starts {
        let input = line_of(data, s, stride, n);
        let mut line = input.clone();
        plan.execute(&mut line, &mut scratch);
        let err = max_abs_diff(&line, &dft(&input, plan.direction()));
        assert!(err < 1e-8 * n as f64, "n={n} line at {s}: err={err}");
        for (j, v) in line.into_iter().enumerate() {
            data[s + j * stride] = v;
        }
    }
}

#[test]
fn batches_equal_per_line_execution_bitwise() {
    let cache = PlanCache::global();
    let lengths = [1usize, 2, 3, 4, 5, 7, 8, 12, 30, 49, 64, 96, 128, 74, 97];
    let mut strategies = std::collections::HashSet::new();
    for n in lengths {
        let b = block_lines(n);
        for dir in DIRECTIONS {
            let plan = cache.plan(n, dir, Rigor::Estimate);
            strategies.insert(plan.strategy());
            let mut scratch = BatchScratch::for_plan(&plan);
            for howmany in [1, b - 1, b, b + 1, 3 * b + 2] {
                let what = |layout: &str| format!("n={n} {dir:?} howmany={howmany} {layout}");
                let mut check = |layout: BatchLayout, name: &str| {
                    let mut got = signal(layout.required_len(n));
                    let mut want = got.clone();
                    execute_batch(&plan, &mut got, layout, &mut scratch);
                    let starts: Vec<usize> = (0..howmany).map(|l| l * layout.dist).collect();
                    per_line(&plan, &mut want, &starts, layout.stride);
                    assert_bitwise(&got, &want, &what(name));
                };
                check(BatchLayout::contiguous(n, howmany), "contiguous");
                // Matrix columns — the lanes of a block are neighbours.
                check(
                    BatchLayout {
                        howmany,
                        stride: howmany + 3,
                        dist: 1,
                    },
                    "dist=1 strided",
                );
                // Gaps inside the lines and between them (untouched
                // elements must survive — `want` keeps them too).
                check(
                    BatchLayout {
                        howmany,
                        stride: 3,
                        dist: 3 * n + 2,
                    },
                    "general stride/dist",
                );

                // Scattered rows, visited in a scrambled order.
                let slots = howmany + 2;
                let starts: Vec<usize> = (0..howmany)
                    .map(|i| ((i * 7 + 1) % slots) * (n + 1))
                    .collect();
                let distinct: std::collections::HashSet<_> = starts.iter().collect();
                assert_eq!(distinct.len(), howmany, "scramble must not repeat a row");
                let mut got = signal(slots * (n + 1));
                let mut want = got.clone();
                execute_rows(&plan, &mut got, &starts, &mut scratch);
                per_line(&plan, &mut want, &starts, 1);
                assert_bitwise(&got, &want, &what("row list"));
            }
        }
    }
    // The lengths reach every kernel the Estimate planner picks.
    for s in [Strategy::Naive, Strategy::MixedRadix, Strategy::Bluestein] {
        assert!(strategies.contains(&s), "{s:?} not exercised");
    }
}

/// Whatever kernel a measuring planner selects — Rader or Bluestein at the
/// prime 97, in-place radix-2 or Stockham at a power of two, possibly naive
/// at 8 — it runs through the same entry point with the same guarantee.
#[test]
fn measured_plans_go_through_the_block_entry_point() {
    for (n, rigor) in [
        (97usize, Rigor::Measure),
        (64, Rigor::Measure),
        (8, Rigor::Patient),
    ] {
        let measured = PlanCache::new();
        for dir in DIRECTIONS {
            let plan = measured.plan(n, dir, rigor);
            let layout = BatchLayout {
                howmany: 19,
                stride: 19,
                dist: 1,
            };
            let mut got = signal(layout.required_len(n));
            let mut want = got.clone();
            execute_batch(&plan, &mut got, layout, &mut BatchScratch::default());
            per_line(&plan, &mut want, &(0..19).collect::<Vec<_>>(), 19);
            assert_bitwise(&got, &want, &format!("n={n} {:?}", plan.strategy()));
        }
    }
}

#[test]
fn threaded_rows_equal_sequential_bitwise() {
    let n = 96;
    let plan = PlanCache::global().plan(n, Direction::Forward, Rigor::Estimate);
    let rows = 3 * block_lines(n) + 2;
    // Sorted rows with a gap after every third.
    let starts: Vec<usize> = (0..rows).map(|i| (i + i / 3) * n).collect();
    let len = starts[rows - 1] + n;
    let mut want = signal(len);
    per_line(&plan, &mut want, &starts, 1);
    // What the executor runs: the sorted rows split into one contiguous run
    // per worker, each run transformed on its own thread with its own scratch.
    let run = |run: RowRun<'_>| {
        let local: Vec<usize> = run.rows.map(|r| starts[r] - run.offset).collect();
        execute_rows(&plan, run.data, &local, &mut BatchScratch::for_plan(&plan));
    };
    for threads in [1, 2, 3, 8] {
        let mut got = signal(len);
        fork_join(
            split_rows(&mut got, n, rows, threads, |r| starts[r]),
            run,
            run,
        );
        assert_bitwise(&got, &want, &format!("threads={threads}"));
    }
}

#[test]
#[should_panic(expected = "batch layout exceeds buffer")]
fn short_buffer_still_panics() {
    let plan = PlanCache::global().plan(16, Direction::Forward, Rigor::Estimate);
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
#[should_panic(expected = "batch lines would alias")]
fn aliasing_lines_still_panic() {
    let plan = PlanCache::global().plan(4, Direction::Forward, Rigor::Estimate);
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

/// One sweep of a 3-D array along the axis whose lines start at `starts`
/// and step by `stride`, by `f` on each gathered line.
fn sweep(
    data: &mut [Complex64],
    starts: impl Iterator<Item = usize>,
    stride: usize,
    n: usize,
    mut f: impl FnMut(&mut Vec<Complex64>),
) {
    for s in starts {
        let mut line = line_of(data, s, stride, n);
        f(&mut line);
        for (j, v) in line.into_iter().enumerate() {
            data[s + j * stride] = v;
        }
    }
}

/// z, y, x sweeps over an `x-y-z` array, each line through `f(axis_len, line)`.
fn three_sweeps(
    data: &mut [Complex64],
    (nx, ny, nz): (usize, usize, usize),
    mut f: impl FnMut(usize, &mut Vec<Complex64>),
) {
    sweep(data, (0..nx * ny).map(|l| l * nz), 1, nz, |l| f(nz, l));
    let y_starts = (0..nx).flat_map(|x| (0..nz).map(move |z| x * ny * nz + z));
    sweep(data, y_starts, nz, ny, |l| f(ny, l));
    sweep(data, 0..ny * nz, ny * nz, nx, |l| f(nx, l));
}

#[test]
fn serial_reference_equals_per_line_sweeps_bitwise() {
    let cache = PlanCache::global();
    for dims in [(8, 8, 8), (12, 10, 6), (5, 7, 3), (1, 1, 8), (16, 1, 4)] {
        let (nx, ny, nz) = dims;
        for dir in DIRECTIONS {
            let input = full_test_array(nx, ny, nz);
            let mut got = input.clone();
            fft3_serial(&mut got, nx, ny, nz, dir);

            // The same plans, one gathered line at a time.
            let mut want = input.clone();
            three_sweeps(&mut want, dims, |n, line| {
                cache.plan(n, dir, Rigor::Estimate).execute_alloc(line);
            });
            assert_bitwise(&got, &want, &format!("{nx}x{ny}x{nz} {dir:?}"));

            // And the definition: three naive DFT sweeps.
            let mut naive = input;
            three_sweeps(&mut naive, dims, |_, line| *line = dft(line, dir));
            let err = max_abs_diff(&got, &naive);
            assert!(
                err < 1e-8 * (nx * ny * nz) as f64,
                "{nx}x{ny}x{nz} {dir:?} err={err}"
            );
        }
    }
}
