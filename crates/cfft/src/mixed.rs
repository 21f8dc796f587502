//! Mixed-radix Stockham autosort FFT, lane-blocked.
//!
//! The workhorse kernel of the crate: an out-of-place decimation-in-
//! frequency Cooley–Tukey that ping-pongs between two buffers of equal
//! size. Stockham's self-sorting formulation needs no bit-reversal pass, and
//! one generic driver covers every radix the factorizer emits (4 and 2
//! specialised, 3 and 5 with Winograd-style constants, any other prime ≤ 31
//! through a small O(r²) butterfly).
//!
//! One stage with sub-length `n = r·m` and stride `s` (so `n·s` = total
//! length `N`) maps
//!
//! ```text
//! y[q + s(r·p + v)] = ω_n^{p·v} · Σ_u x[q + s(p + m·u)] · ω_r^{u·v}
//! ```
//!
//! for `p ∈ [0, m)`, `q ∈ [0, s)`, and then recurses on `(m, r·s)` with the
//! buffers swapped. Twiddles come from the single length-`N` table:
//! `ω_n^{p·v} = ω_N^{p·v·s}`.
//!
//! # Lanes
//!
//! The butterfly never mixes two values of `q`, and its twiddles depend on
//! `p` alone — so `q` can carry more than one line. Every stage takes a
//! `lanes` factor `B`: the buffers hold `B` lines interleaved element by
//! element, line `l`'s element `j` at `buf[j·B + l]`, which is the formula
//! above with `q ∈ [0, s·B)` and every data offset scaled by `B` while the
//! twiddle step stays `s`. The inner loop is then `s·B` long with one
//! twiddle set — long enough to vectorise even in the first stages, where a
//! single line gives it a trip count of 1 and 4. `lanes = 1` is the single
//! line, through the same code. A lane's values meet exactly the operations,
//! operands and order they meet alone, so the result of a line does not
//! depend on `B` or on its neighbours: it is bit-identical for every
//! blocking.

use crate::complex::Complex64;
use crate::factor::factorize;
use crate::twiddle::{shared_table, TwiddleTable};
use crate::Direction;
use std::sync::Arc;

/// Cosine/sine constants for the specialised odd radices.
const C3: f64 = -0.5; // cos(2π/3)
const S3: f64 = 0.866_025_403_784_438_6; // sin(2π/3)
const C5_1: f64 = 0.309_016_994_374_947_45; // cos(2π/5)
const C5_2: f64 = -0.809_016_994_374_947_5; // cos(4π/5)
const S5_1: f64 = 0.951_056_516_295_153_5; // sin(2π/5)
const S5_2: f64 = 0.587_785_252_292_473_1; // sin(4π/5)

/// A prepared mixed-radix plan for one `(length, direction)` pair.
#[derive(Debug, Clone)]
pub struct MixedRadixPlan {
    n: usize,
    dir: Direction,
    factors: Vec<usize>,
    /// Length-`n` twiddle table shared across plans of the same length.
    table: Arc<TwiddleTable>,
    /// Per-prime ω_r tables for the generic butterfly.
    radix_tables: Vec<Arc<TwiddleTable>>,
}

impl MixedRadixPlan {
    /// Builds a plan, or `None` when `n` has a prime factor the driver does
    /// not handle (the planner then falls back to Bluestein).
    pub fn new(n: usize, dir: Direction) -> Option<Self> {
        let factors = factorize(n)?;
        let radix_tables = factors.iter().map(|&r| shared_table(r, dir)).collect();
        Some(MixedRadixPlan {
            n,
            dir,
            factors,
            table: shared_table(n, dir),
            radix_tables,
        })
    }

    /// Transform length.
    #[inline]
    pub fn len(&self) -> usize {
        self.n
    }

    /// `true` for the degenerate length… never: lengths are ≥ 1.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Transform direction.
    #[inline]
    pub fn direction(&self) -> Direction {
        self.dir
    }

    /// The radix sequence executed by [`Self::execute`].
    #[inline]
    pub fn factors(&self) -> &[usize] {
        &self.factors
    }

    /// Executes the transform in place, using `scratch` (same length) as the
    /// ping-pong partner buffer. Unnormalised in both directions, matching
    /// FFTW's convention.
    pub fn execute(&self, data: &mut [Complex64], scratch: &mut [Complex64]) {
        if !self.execute_lanes(data, scratch, 1) {
            data.copy_from_slice(scratch);
        }
    }

    /// Transforms `lanes` interleaved lines at once: line `l`, element `j`
    /// is at `a[j·lanes + l]` on entry. The stages ping-pong between `a` and
    /// `b` (both `len()·lanes` long); the result, in the same layout, is in
    /// `a` when this returns `true` and in `b` otherwise — the caller
    /// scatters from whichever holds it, so no closing copy is made here.
    pub fn execute_lanes(&self, a: &mut [Complex64], b: &mut [Complex64], lanes: usize) -> bool {
        assert_eq!(a.len(), self.n * lanes, "data length mismatch with plan");
        assert_eq!(b.len(), self.n * lanes, "scratch length mismatch with plan");
        // `in_a` tracks which buffer currently holds the live values.
        let mut in_a = true;
        let mut n = self.n;
        let mut s = 1usize;
        let (total, table) = (self.n, &*self.table);
        for (&r, radix_table) in self.factors.iter().zip(&self.radix_tables) {
            let m = n / r;
            let (src, dst): (&[Complex64], &mut [Complex64]) =
                if in_a { (&*a, &mut *b) } else { (&*b, &mut *a) };
            match r {
                2 => stage2(m, s, lanes, total, table, src, dst),
                3 => stage3(self.dir, m, s, lanes, total, table, src, dst),
                4 => stage4(self.dir, m, s, lanes, total, table, src, dst),
                5 => stage5(self.dir, m, s, lanes, total, table, src, dst),
                _ => stage_generic(r, m, s, lanes, total, table, radix_table, src, dst),
            }
            in_a = !in_a;
            n = m;
            s *= r;
        }
        in_a
    }
}

/// Advances a twiddle index by `step` modulo `total` without division.
/// Requires `step < total`.
#[inline(always)]
fn advance(idx: &mut usize, step: usize, total: usize) {
    *idx += step;
    if *idx >= total {
        *idx -= total;
    }
}

/// The `R` inputs of butterfly `p` — `src[sl·(p + m·u)..][..sl]` for each
/// `u` — as slices of one known length, so the inner loops index them
/// without bounds checks.
#[inline(always)]
fn inputs<const R: usize>(src: &[Complex64], p: usize, m: usize, sl: usize) -> [&[Complex64]; R] {
    std::array::from_fn(|u| &src[sl * (p + m * u)..][..sl])
}

/// The `R` outputs of one butterfly: `out` (`R·sl` long) cut into its
/// `sl`-long parts `v = 0..R`.
#[inline(always)]
fn outputs<const R: usize>(out: &mut [Complex64], sl: usize) -> [&mut [Complex64]; R] {
    let mut parts = out.chunks_exact_mut(sl);
    std::array::from_fn(|_| parts.next().expect("R parts of sl elements"))
}

fn stage2(
    m: usize,
    s: usize,
    lanes: usize,
    total: usize,
    table: &TwiddleTable,
    src: &[Complex64],
    dst: &mut [Complex64],
) {
    let sl = s * lanes;
    let mut widx = 0usize; // ω_N^{p·s}
    for (p, out) in dst.chunks_exact_mut(2 * sl).enumerate() {
        let wp = table.factor_unreduced(widx);
        let [i0, i1] = inputs(src, p, m, sl);
        let [o0, o1] = outputs(out, sl);
        for q in 0..sl {
            let a = i0[q];
            let b = i1[q];
            o0[q] = a + b;
            o1[q] = (a - b) * wp;
        }
        advance(&mut widx, s, total);
    }
}

#[allow(clippy::too_many_arguments)]
fn stage4(
    dir: Direction,
    m: usize,
    s: usize,
    lanes: usize,
    total: usize,
    table: &TwiddleTable,
    src: &[Complex64],
    dst: &mut [Complex64],
) {
    // ω_4 = −i forward, +i backward.
    let fwd = matches!(dir, Direction::Forward);
    let sl = s * lanes;
    let mut w1 = 0usize;
    for (p, out) in dst.chunks_exact_mut(4 * sl).enumerate() {
        let wp1 = table.factor_unreduced(w1);
        let wp2 = table.factor(2 * w1);
        let wp3 = table.factor(w1 + 2 * w1);
        let [i0, i1, i2, i3] = inputs(src, p, m, sl);
        let [o0, o1, o2, o3] = outputs(out, sl);
        for q in 0..sl {
            let t0 = i0[q];
            let t1 = i1[q];
            let t2 = i2[q];
            let t3 = i3[q];
            let a02 = t0 + t2;
            let s02 = t0 - t2;
            let a13 = t1 + t3;
            let s13 = t1 - t3;
            let js13 = if fwd { s13.mul_neg_i() } else { s13.mul_i() };
            o0[q] = a02 + a13;
            o1[q] = (s02 + js13) * wp1;
            o2[q] = (a02 - a13) * wp2;
            o3[q] = (s02 - js13) * wp3;
        }
        advance(&mut w1, s, total);
    }
}

#[allow(clippy::too_many_arguments)]
fn stage3(
    dir: Direction,
    m: usize,
    s: usize,
    lanes: usize,
    total: usize,
    table: &TwiddleTable,
    src: &[Complex64],
    dst: &mut [Complex64],
) {
    let sign = match dir {
        Direction::Forward => -1.0,
        Direction::Backward => 1.0,
    };
    let sl = s * lanes;
    let mut w1 = 0usize;
    for (p, out) in dst.chunks_exact_mut(3 * sl).enumerate() {
        let wp1 = table.factor_unreduced(w1);
        let wp2 = table.factor(2 * w1);
        let [i0, i1, i2] = inputs(src, p, m, sl);
        let [o0, o1, o2] = outputs(out, sl);
        for q in 0..sl {
            let t0 = i0[q];
            let t1 = i1[q];
            let t2 = i2[q];
            let a = t1 + t2;
            let b = (t1 - t2).mul_i().scale(sign * S3);
            let base = t0 + a.scale(C3);
            o0[q] = t0 + a;
            o1[q] = (base + b) * wp1;
            o2[q] = (base - b) * wp2;
        }
        advance(&mut w1, s, total);
    }
}

#[allow(clippy::too_many_arguments)]
fn stage5(
    dir: Direction,
    m: usize,
    s: usize,
    lanes: usize,
    total: usize,
    table: &TwiddleTable,
    src: &[Complex64],
    dst: &mut [Complex64],
) {
    let sign = match dir {
        Direction::Forward => -1.0,
        Direction::Backward => 1.0,
    };
    let sl = s * lanes;
    let mut w1 = 0usize;
    for (p, out) in dst.chunks_exact_mut(5 * sl).enumerate() {
        let wp = [
            table.factor_unreduced(w1),
            table.factor(2 * w1),
            table.factor(3 * w1),
            table.factor(4 * w1),
        ];
        let [i0, i1, i2, i3, i4] = inputs(src, p, m, sl);
        let [o0, o1, o2, o3, o4] = outputs(out, sl);
        for q in 0..sl {
            let t0 = i0[q];
            let t1 = i1[q];
            let t2 = i2[q];
            let t3 = i3[q];
            let t4 = i4[q];
            let a1 = t1 + t4;
            let b1 = (t1 - t4).mul_i().scale(sign);
            let a2 = t2 + t3;
            let b2 = (t2 - t3).mul_i().scale(sign);
            let m1 = t0 + a1.scale(C5_1) + a2.scale(C5_2);
            let m2 = t0 + a1.scale(C5_2) + a2.scale(C5_1);
            let v1 = b1.scale(S5_1) + b2.scale(S5_2);
            let v2 = b1.scale(S5_2) - b2.scale(S5_1);
            o0[q] = t0 + a1 + a2;
            o1[q] = (m1 + v1) * wp[0];
            o2[q] = (m2 + v2) * wp[1];
            o3[q] = (m2 - v2) * wp[2];
            o4[q] = (m1 - v1) * wp[3];
        }
        advance(&mut w1, s, total);
    }
}

/// Generic O(r²) butterfly for any remaining prime radix ≤ 31.
#[allow(clippy::too_many_arguments)]
fn stage_generic(
    r: usize,
    m: usize,
    s: usize,
    lanes: usize,
    total: usize,
    table: &TwiddleTable,
    radix_table: &TwiddleTable,
    src: &[Complex64],
    dst: &mut [Complex64],
) {
    debug_assert!(r <= 32);
    let sl = s * lanes;
    let mut t = [Complex64::ZERO; 32];
    let mut w1 = 0usize;
    for (p, out) in dst.chunks_exact_mut(r * sl).enumerate() {
        for q in 0..sl {
            for (u, slot) in t[..r].iter_mut().enumerate() {
                *slot = src[q + sl * (p + u * m)];
            }
            for v in 0..r {
                // r-point DFT output v, then the inter-stage twiddle ω_N^{p·v·s}.
                let mut acc = Complex64::ZERO;
                let mut ridx = 0usize;
                for &tu in &t[..r] {
                    acc = tu.mul_add(radix_table.factor_unreduced(ridx), acc);
                    ridx += v;
                    if ridx >= r {
                        ridx -= r;
                    }
                }
                let tw = table.factor(v * w1);
                out[q + sl * v] = acc * tw;
            }
        }
        advance(&mut w1, s, total);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::complex::max_abs_diff;
    use crate::dft::dft;

    fn signal(n: usize) -> Vec<Complex64> {
        (0..n)
            .map(|j| {
                let x = j as f64;
                Complex64::new((0.3 * x).sin() + 0.1 * x, (0.7 * x).cos() - 0.05 * x)
            })
            .collect()
    }

    fn run(n: usize, dir: Direction) -> (Vec<Complex64>, Vec<Complex64>) {
        let x = signal(n);
        let plan = MixedRadixPlan::new(n, dir).expect("smooth length");
        let mut y = x.clone();
        let mut scratch = vec![Complex64::ZERO; n];
        plan.execute(&mut y, &mut scratch);
        (y, dft(&x, dir))
    }

    #[test]
    fn matches_naive_dft_for_many_smooth_sizes() {
        for n in [
            1usize, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 15, 16, 20, 21, 24, 25, 27, 30, 32, 35, 48, 49,
            60, 64, 81, 100, 105, 121, 125, 128, 135, 169, 240, 243, 256, 343, 384, 512, 625, 640,
        ] {
            let (y, want) = run(n, Direction::Forward);
            let err = max_abs_diff(&y, &want);
            assert!(err < 1e-8 * (n as f64).max(1.0), "n={n} err={err}");
        }
    }

    #[test]
    fn backward_matches_naive_dft() {
        for n in [2usize, 6, 8, 18, 36, 50, 96, 128] {
            let (y, want) = run(n, Direction::Backward);
            assert!(max_abs_diff(&y, &want) < 1e-9 * n as f64, "n={n}");
        }
    }

    #[test]
    fn round_trip_recovers_input() {
        for n in [4usize, 12, 36, 120, 210, 256] {
            let x = signal(n);
            let f = MixedRadixPlan::new(n, Direction::Forward).unwrap();
            let b = MixedRadixPlan::new(n, Direction::Backward).unwrap();
            let mut y = x.clone();
            let mut scratch = vec![Complex64::ZERO; n];
            f.execute(&mut y, &mut scratch);
            b.execute(&mut y, &mut scratch);
            let y: Vec<Complex64> = y.into_iter().map(|v| v / n as f64).collect();
            assert!(max_abs_diff(&y, &x) < 1e-10 * n as f64, "n={n}");
        }
    }

    #[test]
    fn rejects_rough_lengths() {
        assert!(MixedRadixPlan::new(37, Direction::Forward).is_none());
        assert!(MixedRadixPlan::new(2 * 101, Direction::Forward).is_none());
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let n = 144;
        let x = signal(n);
        let plan = MixedRadixPlan::new(n, Direction::Forward).unwrap();
        let mut y = x.clone();
        let mut scratch = vec![Complex64::ZERO; n];
        plan.execute(&mut y, &mut scratch);
        let ex: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let ey: f64 = y.iter().map(|z| z.norm_sqr()).sum();
        assert!((ey - n as f64 * ex).abs() < 1e-6 * ey.max(1.0));
    }

    #[test]
    fn generic_prime_radices_work() {
        for n in [7usize, 11, 13, 17, 19, 23, 29, 31, 7 * 11, 13 * 4, 29 * 3] {
            let (y, want) = run(n, Direction::Forward);
            assert!(max_abs_diff(&y, &want) < 1e-8 * n as f64, "n={n}");
        }
    }

    /// `lanes` distinct lines interleaved as `buf[j·lanes + l]`.
    fn interleaved(n: usize, lanes: usize) -> (Vec<Vec<Complex64>>, Vec<Complex64>) {
        let lines: Vec<Vec<Complex64>> = (0..lanes)
            .map(|l| {
                signal(n)
                    .into_iter()
                    .map(|v| v * Complex64::new(1.0 + l as f64, 0.5 - l as f64))
                    .collect()
            })
            .collect();
        let buf = (0..n * lanes)
            .map(|i| lines[i % lanes][i / lanes])
            .collect();
        (lines, buf)
    }

    /// Runs `stage` as the only stage of a length-`r` transform over
    /// `lanes` lines and checks every lane against the `r`-point DFT.
    fn check_stage(
        r: usize,
        dir: Direction,
        stage: impl Fn(usize, &TwiddleTable, &[Complex64], &mut [Complex64]),
    ) {
        let table = TwiddleTable::new(r, dir);
        for lanes in [1usize, 2, 3, 8] {
            let (lines, src) = interleaved(r, lanes);
            let mut dst = vec![Complex64::ZERO; r * lanes];
            stage(lanes, &table, &src, &mut dst);
            for (l, line) in lines.iter().enumerate() {
                let got: Vec<Complex64> = (0..r).map(|j| dst[j * lanes + l]).collect();
                let err = max_abs_diff(&got, &dft(line, dir));
                assert!(
                    err < 1e-12 * r as f64,
                    "r={r} {dir:?} lanes={lanes} lane={l} err={err}"
                );
            }
        }
    }

    #[test]
    fn every_stage_is_its_radix_dft_at_any_lane_count() {
        for dir in [Direction::Forward, Direction::Backward] {
            check_stage(2, dir, |lanes, t, src, dst| {
                stage2(1, 1, lanes, 2, t, src, dst)
            });
            check_stage(3, dir, |lanes, t, src, dst| {
                stage3(dir, 1, 1, lanes, 3, t, src, dst)
            });
            check_stage(4, dir, |lanes, t, src, dst| {
                stage4(dir, 1, 1, lanes, 4, t, src, dst)
            });
            check_stage(5, dir, |lanes, t, src, dst| {
                stage5(dir, 1, 1, lanes, 5, t, src, dst)
            });
            check_stage(7, dir, |lanes, t, src, dst| {
                stage_generic(7, 1, 1, lanes, 7, t, t, src, dst)
            });
        }
    }

    #[test]
    fn lanes_reproduce_the_single_line_bit_for_bit() {
        // Lengths whose stages cover every radix at several (m, s).
        for n in [1usize, 2, 6, 8, 9, 25, 30, 49, 60, 96, 128, 7 * 16] {
            for dir in [Direction::Forward, Direction::Backward] {
                let plan = MixedRadixPlan::new(n, dir).unwrap();
                for lanes in [1usize, 2, 3, 8] {
                    let (lines, mut a) = interleaved(n, lanes);
                    let mut b = vec![Complex64::ZERO; n * lanes];
                    let in_a = plan.execute_lanes(&mut a, &mut b, lanes);
                    assert_eq!(in_a, plan.factors().len() % 2 == 0);
                    let out = if in_a { &a } else { &b };
                    for (l, line) in lines.iter().enumerate() {
                        let mut alone = line.clone();
                        plan.execute(&mut alone, &mut vec![Complex64::ZERO; n]);
                        for (j, want) in alone.iter().enumerate() {
                            let got = out[j * lanes + l];
                            assert!(
                                got.re.to_bits() == want.re.to_bits()
                                    && got.im.to_bits() == want.im.to_bits(),
                                "n={n} {dir:?} lanes={lanes} lane={l} j={j}"
                            );
                        }
                        let err = max_abs_diff(&alone, &dft(line, dir));
                        assert!(err < 1e-7 * n as f64, "n={n} {dir:?} err={err}");
                    }
                }
            }
        }
    }
}
