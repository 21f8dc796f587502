//! Property-based tests of the FFT kernels: the algebraic identities every
//! DFT implementation must satisfy, checked over randomly drawn lengths and
//! signals.

use cfft::batch::{execute_batch, execute_rows, BatchLayout, BatchScratch};
use cfft::complex::{max_abs_diff, rel_l2_error};
use cfft::dft::dft;
use cfft::planner::Planner;
use cfft::transpose::{permute3, permuted_dims, Dims3, XYZ_TO_XZY, XYZ_TO_ZXY};
use cfft::{Complex64, Direction};
use proptest::prelude::*;

fn complex_vec(n: usize) -> impl Strategy<Value = Vec<Complex64>> {
    prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0), n..=n).prop_map(|v| {
        v.into_iter()
            .map(|(re, im)| Complex64::new(re, im))
            .collect()
    })
}

/// Lengths mixing smooth, prime, and awkward composites.
fn any_len() -> impl Strategy<Value = usize> {
    prop_oneof![
        1usize..=64,
        Just(97),
        Just(128),
        Just(120),
        Just(101),
        Just(210),
        Just(256),
    ]
}

fn plan_and_run(x: &[Complex64], dir: Direction) -> Vec<Complex64> {
    let mut planner = Planner::new();
    let plan = planner.plan(x.len(), dir);
    let mut y = x.to_vec();
    plan.execute_alloc(&mut y);
    y
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The planner-selected kernel agrees with the O(N²) definition.
    #[test]
    fn fft_matches_naive_dft(n in any_len(), seed in 0u64..1000) {
        let x: Vec<Complex64> = (0..n)
            .map(|j| {
                let t = (j as u64).wrapping_mul(seed.wrapping_add(1)) as f64;
                Complex64::new((t * 1e-3).sin(), (t * 7e-4).cos())
            })
            .collect();
        let got = plan_and_run(&x, Direction::Forward);
        let want = dft(&x, Direction::Forward);
        prop_assert!(rel_l2_error(&got, &want) < 1e-9);
    }

    /// Linearity: FFT(a·x + y) = a·FFT(x) + FFT(y).
    #[test]
    fn fft_is_linear(n in any_len(), a_re in -2.0f64..2.0, a_im in -2.0f64..2.0) {
        let x: Vec<Complex64> =
            (0..n).map(|j| Complex64::new((j as f64).sin(), 0.25 * j as f64)).collect();
        let y: Vec<Complex64> =
            (0..n).map(|j| Complex64::new(1.0 / (j + 1) as f64, (j as f64).cos())).collect();
        let a = Complex64::new(a_re, a_im);
        let combo: Vec<Complex64> =
            x.iter().zip(&y).map(|(xi, yi)| a * *xi + *yi).collect();
        let lhs = plan_and_run(&combo, Direction::Forward);
        let fx = plan_and_run(&x, Direction::Forward);
        let fy = plan_and_run(&y, Direction::Forward);
        let rhs: Vec<Complex64> = fx.iter().zip(&fy).map(|(fxi, fyi)| a * *fxi + *fyi).collect();
        prop_assert!(rel_l2_error(&lhs, &rhs) < 1e-9);
    }

    /// Parseval: ‖FFT(x)‖² = N·‖x‖².
    #[test]
    fn parseval(xs in complex_vec(96)) {
        let y = plan_and_run(&xs, Direction::Forward);
        let ex: f64 = xs.iter().map(|z| z.norm_sqr()).sum();
        let ey: f64 = y.iter().map(|z| z.norm_sqr()).sum();
        prop_assert!((ey - 96.0 * ex).abs() <= 1e-8 * (1.0 + ey.abs()));
    }

    /// Forward then backward recovers the input (scaled by N).
    #[test]
    fn round_trip(n in any_len(), xs_seed in 0u64..500) {
        let x: Vec<Complex64> = (0..n)
            .map(|j| {
                let t = j as f64 + xs_seed as f64;
                Complex64::new((t * 0.11).sin(), (t * 0.07).cos())
            })
            .collect();
        let y = plan_and_run(&x, Direction::Forward);
        let z = plan_and_run(&y, Direction::Backward);
        let z: Vec<Complex64> = z.into_iter().map(|v| v / n as f64).collect();
        prop_assert!(max_abs_diff(&z, &x) < 1e-9 * n as f64);
    }

    /// FFT of the conjugate equals the conjugated, index-reversed FFT.
    #[test]
    fn conjugate_symmetry(xs in complex_vec(60)) {
        let n = xs.len();
        let conj_x: Vec<Complex64> = xs.iter().map(|z| z.conj()).collect();
        let f_conj = plan_and_run(&conj_x, Direction::Forward);
        let f = plan_and_run(&xs, Direction::Forward);
        for k in 0..n {
            let mirrored = f[(n - k) % n].conj();
            prop_assert!((f_conj[k] - mirrored).abs() < 1e-9);
        }
    }

    /// Axis permutations are bijections: every source element lands exactly
    /// once, at the permuted coordinates.
    #[test]
    fn permute3_is_a_bijection(
        n0 in 1usize..8, n1 in 1usize..8, n2 in 1usize..8,
        perm_pick in 0usize..2,
    ) {
        let sd = Dims3::new(n0, n1, n2);
        let perm = if perm_pick == 0 { XYZ_TO_ZXY } else { XYZ_TO_XZY };
        let src: Vec<Complex64> =
            (0..sd.len()).map(|i| Complex64::new(i as f64, 0.0)).collect();
        let mut dst = vec![Complex64::new(-1.0, -1.0); sd.len()];
        permute3(&src, &mut dst, sd, perm);
        let dd = permuted_dims(sd, perm);
        // Check every coordinate triple maps correctly.
        for i0 in 0..n0 {
            for i1 in 0..n1 {
                for i2 in 0..n2 {
                    let s = [i0, i1, i2];
                    let d = dd.idx(s[perm[0]], s[perm[1]], s[perm[2]]);
                    prop_assert_eq!(dst[d], src[sd.idx(i0, i1, i2)]);
                }
            }
        }
    }

    /// Time-domain circular convolution equals point-wise spectral product.
    #[test]
    fn convolution_theorem(seed in 0u64..200) {
        let n = 64usize;
        let x: Vec<Complex64> = (0..n)
            .map(|j| Complex64::new(((j as u64 + seed) as f64 * 0.3).sin(), 0.0))
            .collect();
        let h: Vec<Complex64> = (0..n)
            .map(|j| Complex64::new(if j < 4 { 0.25 } else { 0.0 }, 0.0))
            .collect();
        // Direct circular convolution.
        let mut direct = vec![Complex64::ZERO; n];
        for (k, slot) in direct.iter_mut().enumerate() {
            for j in 0..n {
                *slot += x[j] * h[(n + k - j) % n];
            }
        }
        let fx = plan_and_run(&x, Direction::Forward);
        let fh = plan_and_run(&h, Direction::Forward);
        let prod: Vec<Complex64> = fx.iter().zip(&fh).map(|(a, b)| *a * *b).collect();
        let mut back = plan_and_run(&prod, Direction::Backward);
        for v in &mut back {
            *v = *v / n as f64;
        }
        prop_assert!(max_abs_diff(&back, &direct) < 1e-9 * n as f64);
    }

    /// Block execution is per-line execution, bit for bit: whatever the
    /// length, line count (so block remainder), layout and direction, every
    /// line of a batch comes out exactly as `Plan1d::execute` leaves it alone.
    #[test]
    fn block_execution_equals_per_line_bitwise(
        n in 1usize..=64,
        howmany in 0usize..=40,
        layout_pick in 0usize..4,
        gap in 0usize..5,
        backward in 0usize..2,
        seed in 0u64..1000,
    ) {
        let dir = if backward == 1 { Direction::Backward } else { Direction::Forward };
        let plan = Planner::new().plan(n, dir);
        // Line l, element j at starts[l] + j·stride.
        let (starts, stride): (Vec<usize>, usize) = match layout_pick {
            // Contiguous, end to end.
            0 => ((0..howmany).map(|l| l * n).collect(), 1),
            // Matrix columns: lanes are neighbours.
            1 => ((0..howmany).collect(), howmany.max(1)),
            // Padded rows with padded elements.
            2 => {
                let stride = 1 + gap;
                let dist = (n - 1) * stride + 1 + gap;
                ((0..howmany).map(|l| l * dist).collect(), stride)
            }
            // Scattered rows in a scrambled order (row list only).
            _ => {
                let mut order: Vec<usize> = (0..howmany).collect();
                for i in (1..howmany).rev() {
                    order.swap(i, (seed as usize).wrapping_mul(i + 7) % (i + 1));
                }
                (order.into_iter().map(|slot| slot * (n + gap)).collect(), 1)
            }
        };
        let len = starts.iter().map(|s| s + (n - 1) * stride + 1).max().unwrap_or(0);
        let input: Vec<Complex64> = (0..len)
            .map(|i| {
                let t = (i as u64 + 1).wrapping_mul(seed + 3) as f64;
                Complex64::new((t * 1e-3).sin(), (t * 7e-4).cos())
            })
            .collect();

        let mut got = input.clone();
        let mut scratch = BatchScratch::for_plan(&plan);
        if layout_pick == 3 {
            execute_rows(&plan, &mut got, &starts, &mut scratch);
        } else {
            let dist = if howmany > 1 { starts[1] - starts[0] } else { 1 };
            let layout = BatchLayout { howmany, stride, dist };
            execute_batch(&plan, &mut got, layout, &mut scratch);
        }

        let mut want = input;
        let mut plan_scratch = BatchScratch::default();
        for &s in &starts {
            let mut line: Vec<Complex64> = (0..n).map(|j| want[s + j * stride]).collect();
            plan.execute(&mut line, &mut plan_scratch);
            for (j, v) in line.into_iter().enumerate() {
                want[s + j * stride] = v;
            }
        }
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            prop_assert!(
                g.re.to_bits() == w.re.to_bits() && g.im.to_bits() == w.im.to_bits(),
                "element {} differs: {:?} vs {:?}", i, g, w
            );
        }
    }
}
