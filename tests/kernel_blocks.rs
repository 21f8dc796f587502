//! The lane-blocked kernel's contract, pinned where tier-1 runs it: a batch
//! executed a block of lines at a time (`cfft::batch`) equals per-line
//! `Plan1d::execute` **bit for bit** — for every length class (Stockham of
//! every radix, naive, Bluestein), direction, block remainder and layout —
//! and the permute-free `fft3_serial` built on it equals a per-line
//! gather/execute/scatter of the same plans bit for bit. The planner's one
//! rule is pinned for every length up to 512.

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
    let mut scratch = BatchScratch::default();
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

/// The planner has one rule, so every plan is reproducible: naive up to 4,
/// Stockham exactly at the smooth lengths, Bluestein everywhere else — in
/// both directions, from the global cache and from a fresh one alike.
#[test]
fn the_estimate_rule_picks_every_kernel_up_to_512() {
    let fresh = PlanCache::new();
    for n in 1..=512usize {
        let want = if n <= 4 {
            Strategy::Naive
        } else if cfft::factor::is_smooth(n) {
            Strategy::MixedRadix
        } else {
            Strategy::Bluestein
        };
        for cache in [PlanCache::global(), &fresh] {
            for dir in DIRECTIONS {
                let got = cache.plan(n, dir, Rigor::Estimate).strategy();
                assert_eq!(got, want, "n={n} {dir:?}");
            }
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

// ---------------------------------------------------------------------------
// Absolute values. Everything above compares the batch with the per-line
// call, and both run the same stages — so a change to the stages would move
// both sides together. The digests below were recorded from the kernel while
// its block was an array of `Complex64` pairs (commit abe84ac, debug and
// `--release` alike) and are never edited: the stages may be re-laid-out, but
// no bit of any spectrum may move.

fn fnv(h: &mut u64, word: u64) {
    for byte in word.to_le_bytes() {
        *h = (*h ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a over the length and the bit patterns of `data`, folded into `h`.
fn fold(h: &mut u64, data: &[Complex64]) {
    fnv(h, data.len() as u64);
    for c in data {
        fnv(h, c.re.to_bits());
        fnv(h, c.im.to_bits());
    }
}

/// One digest per `(n, dir)`: the whole buffer (gaps included) after
/// `execute_batch` over contiguous lines and over matrix columns and after
/// `execute_rows` over a scrambled row list, at every block remainder.
fn batch_digest(n: usize, dir: Direction, scratch: &mut BatchScratch) -> u64 {
    let plan = PlanCache::global().plan(n, dir, Rigor::Estimate);
    let b = block_lines(n);
    let mut h = FNV_OFFSET;
    for howmany in [1, b - 1, b, b + 1, 2 * b + 3] {
        if howmany == 0 {
            continue;
        }
        for layout in [
            BatchLayout::contiguous(n, howmany),
            BatchLayout {
                howmany,
                stride: howmany + 3,
                dist: 1,
            },
        ] {
            let mut data = signal(layout.required_len(n));
            execute_batch(&plan, &mut data, layout, scratch);
            fold(&mut h, &data);
        }
        let slots = howmany + 2;
        let starts: Vec<usize> = (0..howmany)
            .map(|i| ((i * 7 + 1) % slots) * (n + 1))
            .collect();
        let mut data = signal(slots * (n + 1));
        execute_rows(&plan, &mut data, &starts, scratch);
        fold(&mut h, &data);
    }
    h
}

/// `(n, [forward, backward])`: every radix at several `(m, s)`, then
/// Bluestein at 74 and at the prime 37.
const BATCH_GOLDEN: [(usize, [u64; 2]); 21] = [
    (2, [0x62a8b025e28f3eac, 0x046c964b27f948f8]),
    (3, [0x77bb5db18e225737, 0xfbee9bed34300932]),
    (4, [0x7037965910dda67e, 0xe7653f27bd852cba]),
    (5, [0xfb28cf0c4051df20, 0xcfe268298a2d8bfc]),
    (6, [0x8bbda05009d3bc75, 0x35ca2fa9b486e3e2]),
    (7, [0x32cba2d7963eb56b, 0x9a673da1101285d3]),
    (8, [0x638d0c6b0bd9c3fa, 0x64e8ca56c5b42257]),
    (9, [0x7b73175a6c376e73, 0x6cde140ddfcbf265]),
    (16, [0x1fb4154a3a12b4f4, 0x2b6a604a4310172c]),
    (25, [0x21a5d43f93f37867, 0xe88d2692b1a2a3d2]),
    (30, [0x99a88f59b0fdcc40, 0xbb5e0d616731574e]),
    (49, [0x345a17528227c425, 0x3da931b956731cbb]),
    (60, [0x5609cc71ea8de607, 0x6cd2bc3e98e49336]),
    (64, [0xc5249532f757a467, 0xc57e6104817c2787]),
    (96, [0x0bd8874e2a95aac5, 0x1b329c34360d576e]),
    (121, [0x8c319a0cf00efbc3, 0xd46ec855a64db350]),
    (128, [0x93b95790b37208e0, 0xad89f497d0f159f9]),
    (7 * 16, [0xe66490e7595dd717, 0x0d3c14ffabdd8cd9]),
    (625, [0xa813e3c933229805, 0x648ea02a1e78f780]),
    (74, [0xef5734f30851943a, 0x5eeea04b27c114f0]),
    (37, [0xd1a885728f3a37a9, 0x2d14b6a1241085e5]),
];

#[test]
fn batch_output_equals_the_recorded_digests() {
    let mut scratch = BatchScratch::default();
    let mut moved = Vec::new();
    for (n, want) in BATCH_GOLDEN {
        let got = DIRECTIONS.map(|dir| batch_digest(n, dir, &mut scratch));
        if got != want {
            moved.push(format!("({n}, [{:#018x}, {:#018x}])", got[0], got[1]));
        }
    }
    assert!(moved.is_empty(), "spectra moved; computed: {moved:#?}");
}

/// The real transforms run one half-length complex plan: Stockham at 64 and
/// 100, Bluestein at 148. `(n, [half spectrum, its inverse])`.
const REAL_GOLDEN: [(usize, [u64; 2]); 3] = [
    (64, [0x7f3f590f4dad2767, 0xb31a65426aaaf85b]),
    (100, [0x77b3309f0d2bd104, 0xd80b8724ddb4aa00]),
    (148, [0xf9c7ed944bcd36b3, 0x470f76d34617b98c]),
];

#[test]
fn real_transforms_equal_the_recorded_digests() {
    for (n, want) in REAL_GOLDEN {
        let input: Vec<f64> = (0..n)
            .map(|j| (j as f64 * 0.19).sin() + 0.3 * (j as f64 * 0.05).cos())
            .collect();
        let plan = cfft::real::RealFftPlan::new(n);
        let mut spectrum = vec![Complex64::ZERO; plan.spectrum_len()];
        plan.forward(&input, &mut spectrum);
        let mut forward = FNV_OFFSET;
        fold(&mut forward, &spectrum);
        let mut back = vec![0.0; n];
        plan.inverse(&spectrum, &mut back);
        let mut inverse = FNV_OFFSET;
        for v in &back {
            fnv(&mut inverse, v.to_bits());
        }
        let got = [forward, inverse];
        assert_eq!(got, want, "n={n}: computed {got:#018x?}");
    }
}
