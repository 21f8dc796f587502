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
//! `p` alone — so `q` can carry more than one line. Every stage runs over a
//! [`Block`] of `B` lanes: `B` lines interleaved element by element and split
//! into a real and an imaginary `f64` plane, line `l`'s element `j` at index
//! `j·B + l` of each, which is the formula above with `q ∈ [0, s·B)` and
//! every data offset scaled by `B` while the twiddle step stays `s`. The
//! inner loop is then `s·B` long with one twiddle set, over unit-stride `f64`
//! slices — long enough to vectorise even in the first stages, where a
//! single line gives it a trip count of 1 and 4, and with no re/im shuffle
//! in it at any vector width. `B = 1` is the single line, through the same
//! code; there is no other form of any stage.
//!
//! A lane's values meet exactly the operations, operands and order they meet
//! alone — each butterfly is written in `Complex64` arithmetic on values
//! loaded from the two planes, and nothing is fused or reassociated — so the
//! result of a line does not depend on `B`, on its neighbours or on how wide
//! the loop was vectorised: it is bit-identical for every blocking.

use crate::batch::{BatchScratch, Block};
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

    /// Executes the transform in place: `data` is a block of one lane in
    /// `scratch`, through the stages every block takes. Unnormalised in both
    /// directions, matching FFTW's convention.
    pub fn execute(&self, data: &mut [Complex64], scratch: &mut BatchScratch) {
        assert_eq!(data.len(), self.n, "data length mismatch with plan");
        let (mut a, mut b) = scratch.pair(self.n, 1);
        a.load_lane(0, data, 1);
        let result = if self.execute_lanes(&mut a, &mut b) {
            a
        } else {
            b
        };
        result.store_lane(0, data, 1);
    }

    /// Transforms the lanes of `a` at once. The stages ping-pong between `a`
    /// and `b` (blocks of one shape); the result, in the same layout, is in
    /// `a` when this returns `true` and in `b` otherwise — the caller
    /// scatters from whichever holds it, so no closing copy is made here.
    pub fn execute_lanes(&self, a: &mut Block<'_>, b: &mut Block<'_>) -> bool {
        let lanes = a.lanes();
        assert_eq!(
            a.re.len(),
            self.n * lanes,
            "block length mismatch with plan"
        );
        assert_eq!(b.lanes(), lanes, "the partner block has the block's lanes");
        assert_eq!(
            b.re.len(),
            self.n * lanes,
            "partner length mismatch with plan"
        );
        // `in_a` tracks which block currently holds the live values.
        let mut in_a = true;
        let mut n = self.n;
        let mut s = 1usize;
        let (total, table) = (self.n, &*self.table);
        for (&r, radix_table) in self.factors.iter().zip(&self.radix_tables) {
            let m = n / r;
            let (src_re, src_im, dst_re, dst_im): (&[f64], &[f64], &mut [f64], &mut [f64]) = if in_a
            {
                (a.re, a.im, b.re, b.im)
            } else {
                (b.re, b.im, a.re, a.im)
            };
            match r {
                2 => stage2(m, s, lanes, total, table, src_re, src_im, dst_re, dst_im),
                3 => stage3(
                    self.dir, m, s, lanes, total, table, src_re, src_im, dst_re, dst_im,
                ),
                4 => match self.dir {
                    Direction::Forward => {
                        stage4::<true>(m, s, lanes, total, table, src_re, src_im, dst_re, dst_im)
                    }
                    Direction::Backward => {
                        stage4::<false>(m, s, lanes, total, table, src_re, src_im, dst_re, dst_im)
                    }
                },
                5 => stage5(
                    self.dir, m, s, lanes, total, table, src_re, src_im, dst_re, dst_im,
                ),
                _ => stage_generic(
                    r,
                    m,
                    s,
                    lanes,
                    total,
                    table,
                    radix_table,
                    src_re,
                    src_im,
                    dst_re,
                    dst_im,
                ),
            }
            in_a = !in_a;
            n = m;
            s *= r;
        }
        in_a
    }
}

/// The cyclic convolution both chirp-z kernels run: the one-lane block `a`
/// ← `bwd(fwd(a) ⊙ hat)`, unnormalised, with `b` as the ping-pong partner.
/// Returns whichever of the two holds the result.
pub(crate) fn convolve<'p>(
    fwd: &MixedRadixPlan,
    bwd: &MixedRadixPlan,
    hat: &[Complex64],
    mut a: Block<'p>,
    mut b: Block<'p>,
) -> Block<'p> {
    if !fwd.execute_lanes(&mut a, &mut b) {
        std::mem::swap(&mut a, &mut b);
    }
    for ((re, im), h) in a.re.iter_mut().zip(a.im.iter_mut()).zip(hat) {
        let v = Complex64::new(*re, *im) * *h;
        (*re, *im) = (v.re, v.im);
    }
    if bwd.execute_lanes(&mut a, &mut b) {
        a
    } else {
        b
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

/// One input of a butterfly: the same `sl` elements of both planes.
#[derive(Clone, Copy)]
struct In<'a> {
    re: &'a [f64],
    im: &'a [f64],
}

impl In<'_> {
    #[inline(always)]
    fn at(self, q: usize) -> Complex64 {
        Complex64::new(self.re[q], self.im[q])
    }

    /// The first `n` elements: every slice of a lane loop is cut to the one
    /// length the loop runs to, which is what frees it of bounds checks.
    #[inline(always)]
    fn first(self, n: usize) -> Self {
        In {
            re: &self.re[..n],
            im: &self.im[..n],
        }
    }
}

/// Stores `v` as element `q` of one output of a butterfly.
#[inline(always)]
fn set(re: &mut [f64], im: &mut [f64], q: usize, v: Complex64) {
    re[q] = v.re;
    im[q] = v.im;
}

/// The `R` inputs of butterfly `p` — elements `sl·(p + m·u)..` of the source
/// planes for each `u` — as slices of one known length, so the lane loops
/// index them without bounds checks.
#[inline(always)]
fn inputs<'a, const R: usize>(
    re: &'a [f64],
    im: &'a [f64],
    p: usize,
    m: usize,
    sl: usize,
) -> [In<'a>; R] {
    let mut parts = [In { re: &[], im: &[] }; R];
    for (u, part) in parts.iter_mut().enumerate() {
        let at = sl * (p + m * u);
        *part = In {
            re: &re[at..][..sl],
            im: &im[at..][..sl],
        };
    }
    parts
}

/// The `R` outputs of one butterfly in one destination plane: its `R·sl`
/// elements cut into the `sl`-long parts `v = 0..R`.
#[inline(always)]
fn outputs<const R: usize>(mut out: &mut [f64], sl: usize) -> [&mut [f64]; R] {
    let mut parts = [(); R].map(|()| -> &mut [f64] { &mut [] });
    for part in &mut parts {
        (*part, out) = out.split_at_mut(sl);
    }
    parts
}

/// The destination planes cut into one `r·sl`-long part per butterfly `p`.
#[inline(always)]
fn butterflies<'a>(
    re: &'a mut [f64],
    im: &'a mut [f64],
    len: usize,
) -> impl Iterator<Item = (usize, (&'a mut [f64], &'a mut [f64]))> {
    re.chunks_exact_mut(len)
        .zip(im.chunks_exact_mut(len))
        .enumerate()
}

// Each stage is a loop over the butterflies `p`, which picks the twiddles and
// cuts the slices, around a lane loop over `q`, which is a function of its
// own (`lanesR`) for one reason: as parameters, its output slices are known
// to the compiler to be disjoint from each other and from the inputs, and
// that is what lets it vectorise the loop without a run-time overlap check it
// could fail. Everything is inlined back into one loop nest.

#[expect(clippy::too_many_arguments, reason = "disjoint slice parameters")]
fn stage2(
    m: usize,
    s: usize,
    lanes: usize,
    total: usize,
    table: &TwiddleTable,
    src_re: &[f64],
    src_im: &[f64],
    dst_re: &mut [f64],
    dst_im: &mut [f64],
) {
    let sl = s * lanes;
    let mut widx = 0usize; // ω_N^{p·s}
    for (p, (out_re, out_im)) in butterflies(dst_re, dst_im, 2 * sl) {
        let wp = table.factor_unreduced(widx);
        let [o0r, o1r] = outputs(out_re, sl);
        let [o0i, o1i] = outputs(out_im, sl);
        lanes2(wp, inputs(src_re, src_im, p, m, sl), o0r, o0i, o1r, o1i);
        advance(&mut widx, s, total);
    }
}

#[inline(always)]
fn lanes2(
    wp: Complex64,
    [i0, i1]: [In<'_>; 2],
    o0r: &mut [f64],
    o0i: &mut [f64],
    o1r: &mut [f64],
    o1i: &mut [f64],
) {
    let n = o0r.len();
    let [i0, i1] = [i0, i1].map(|i| i.first(n));
    let [o0i, o1r, o1i] = [o0i, o1r, o1i].map(|o| &mut o[..n]);
    for q in 0..n {
        let a = i0.at(q);
        let b = i1.at(q);
        set(o0r, o0i, q, a + b);
        set(o1r, o1i, q, (a - b) * wp);
    }
}

/// `FWD` is the direction as a constant: which `ω_4` it is is not a question
/// for the lane loop.
#[expect(clippy::too_many_arguments, reason = "disjoint slice parameters")]
fn stage4<const FWD: bool>(
    m: usize,
    s: usize,
    lanes: usize,
    total: usize,
    table: &TwiddleTable,
    src_re: &[f64],
    src_im: &[f64],
    dst_re: &mut [f64],
    dst_im: &mut [f64],
) {
    let sl = s * lanes;
    let mut w1 = 0usize;
    for (p, (out_re, out_im)) in butterflies(dst_re, dst_im, 4 * sl) {
        let wp = [
            table.factor_unreduced(w1),
            table.factor(2 * w1),
            table.factor(w1 + 2 * w1),
        ];
        let [o0r, o1r, o2r, o3r] = outputs(out_re, sl);
        let [o0i, o1i, o2i, o3i] = outputs(out_im, sl);
        lanes4::<FWD>(
            wp,
            inputs(src_re, src_im, p, m, sl),
            o0r,
            o0i,
            o1r,
            o1i,
            o2r,
            o2i,
            o3r,
            o3i,
        );
        advance(&mut w1, s, total);
    }
}

#[expect(clippy::too_many_arguments, reason = "disjoint slice parameters")]
#[inline(always)]
fn lanes4<const FWD: bool>(
    [wp1, wp2, wp3]: [Complex64; 3],
    [i0, i1, i2, i3]: [In<'_>; 4],
    o0r: &mut [f64],
    o0i: &mut [f64],
    o1r: &mut [f64],
    o1i: &mut [f64],
    o2r: &mut [f64],
    o2i: &mut [f64],
    o3r: &mut [f64],
    o3i: &mut [f64],
) {
    let n = o0r.len();
    let [i0, i1, i2, i3] = [i0, i1, i2, i3].map(|i| i.first(n));
    let [o0i, o1r, o1i, o2r, o2i, o3r, o3i] =
        [o0i, o1r, o1i, o2r, o2i, o3r, o3i].map(|o| &mut o[..n]);
    for q in 0..n {
        let t0 = i0.at(q);
        let t1 = i1.at(q);
        let t2 = i2.at(q);
        let t3 = i3.at(q);
        let a02 = t0 + t2;
        let s02 = t0 - t2;
        let a13 = t1 + t3;
        let s13 = t1 - t3;
        // ω_4 = −i forward, +i backward.
        let js13 = if FWD { s13.mul_neg_i() } else { s13.mul_i() };
        set(o0r, o0i, q, a02 + a13);
        set(o1r, o1i, q, (s02 + js13) * wp1);
        set(o2r, o2i, q, (a02 - a13) * wp2);
        set(o3r, o3i, q, (s02 - js13) * wp3);
    }
}

#[expect(clippy::too_many_arguments, reason = "disjoint slice parameters")]
fn stage3(
    dir: Direction,
    m: usize,
    s: usize,
    lanes: usize,
    total: usize,
    table: &TwiddleTable,
    src_re: &[f64],
    src_im: &[f64],
    dst_re: &mut [f64],
    dst_im: &mut [f64],
) {
    let sign = match dir {
        Direction::Forward => -1.0,
        Direction::Backward => 1.0,
    };
    let sl = s * lanes;
    let mut w1 = 0usize;
    for (p, (out_re, out_im)) in butterflies(dst_re, dst_im, 3 * sl) {
        let wp = [table.factor_unreduced(w1), table.factor(2 * w1)];
        let [o0r, o1r, o2r] = outputs(out_re, sl);
        let [o0i, o1i, o2i] = outputs(out_im, sl);
        lanes3(
            sign,
            wp,
            inputs(src_re, src_im, p, m, sl),
            o0r,
            o0i,
            o1r,
            o1i,
            o2r,
            o2i,
        );
        advance(&mut w1, s, total);
    }
}

#[expect(clippy::too_many_arguments, reason = "disjoint slice parameters")]
#[inline(always)]
fn lanes3(
    sign: f64,
    [wp1, wp2]: [Complex64; 2],
    [i0, i1, i2]: [In<'_>; 3],
    o0r: &mut [f64],
    o0i: &mut [f64],
    o1r: &mut [f64],
    o1i: &mut [f64],
    o2r: &mut [f64],
    o2i: &mut [f64],
) {
    let n = o0r.len();
    let [i0, i1, i2] = [i0, i1, i2].map(|i| i.first(n));
    let [o0i, o1r, o1i, o2r, o2i] = [o0i, o1r, o1i, o2r, o2i].map(|o| &mut o[..n]);
    for q in 0..n {
        let t0 = i0.at(q);
        let t1 = i1.at(q);
        let t2 = i2.at(q);
        let a = t1 + t2;
        let b = (t1 - t2).mul_i().scale(sign * S3);
        let base = t0 + a.scale(C3);
        set(o0r, o0i, q, t0 + a);
        set(o1r, o1i, q, (base + b) * wp1);
        set(o2r, o2i, q, (base - b) * wp2);
    }
}

#[expect(clippy::too_many_arguments, reason = "disjoint slice parameters")]
fn stage5(
    dir: Direction,
    m: usize,
    s: usize,
    lanes: usize,
    total: usize,
    table: &TwiddleTable,
    src_re: &[f64],
    src_im: &[f64],
    dst_re: &mut [f64],
    dst_im: &mut [f64],
) {
    let sign = match dir {
        Direction::Forward => -1.0,
        Direction::Backward => 1.0,
    };
    let sl = s * lanes;
    let mut w1 = 0usize;
    for (p, (out_re, out_im)) in butterflies(dst_re, dst_im, 5 * sl) {
        let wp = [
            table.factor_unreduced(w1),
            table.factor(2 * w1),
            table.factor(3 * w1),
            table.factor(4 * w1),
        ];
        let [o0r, o1r, o2r, o3r, o4r] = outputs(out_re, sl);
        let [o0i, o1i, o2i, o3i, o4i] = outputs(out_im, sl);
        lanes5(
            sign,
            wp,
            inputs(src_re, src_im, p, m, sl),
            o0r,
            o0i,
            o1r,
            o1i,
            o2r,
            o2i,
            o3r,
            o3i,
            o4r,
            o4i,
        );
        advance(&mut w1, s, total);
    }
}

#[expect(clippy::too_many_arguments, reason = "disjoint slice parameters")]
#[inline(always)]
fn lanes5(
    sign: f64,
    wp: [Complex64; 4],
    [i0, i1, i2, i3, i4]: [In<'_>; 5],
    o0r: &mut [f64],
    o0i: &mut [f64],
    o1r: &mut [f64],
    o1i: &mut [f64],
    o2r: &mut [f64],
    o2i: &mut [f64],
    o3r: &mut [f64],
    o3i: &mut [f64],
    o4r: &mut [f64],
    o4i: &mut [f64],
) {
    let n = o0r.len();
    let [i0, i1, i2, i3, i4] = [i0, i1, i2, i3, i4].map(|i| i.first(n));
    let [o0i, o1r, o1i, o2r, o2i, o3r, o3i, o4r, o4i] =
        [o0i, o1r, o1i, o2r, o2i, o3r, o3i, o4r, o4i].map(|o| &mut o[..n]);
    for q in 0..n {
        let t0 = i0.at(q);
        let t1 = i1.at(q);
        let t2 = i2.at(q);
        let t3 = i3.at(q);
        let t4 = i4.at(q);
        let a1 = t1 + t4;
        let b1 = (t1 - t4).mul_i().scale(sign);
        let a2 = t2 + t3;
        let b2 = (t2 - t3).mul_i().scale(sign);
        let m1 = t0 + a1.scale(C5_1) + a2.scale(C5_2);
        let m2 = t0 + a1.scale(C5_2) + a2.scale(C5_1);
        let v1 = b1.scale(S5_1) + b2.scale(S5_2);
        let v2 = b1.scale(S5_2) - b2.scale(S5_1);
        set(o0r, o0i, q, t0 + a1 + a2);
        set(o1r, o1i, q, (m1 + v1) * wp[0]);
        set(o2r, o2i, q, (m2 + v2) * wp[1]);
        set(o3r, o3i, q, (m2 - v2) * wp[2]);
        set(o4r, o4i, q, (m1 - v1) * wp[3]);
    }
}

/// Generic O(r²) butterfly for any remaining prime radix ≤ 31.
#[expect(clippy::too_many_arguments, reason = "disjoint slice parameters")]
fn stage_generic(
    r: usize,
    m: usize,
    s: usize,
    lanes: usize,
    total: usize,
    table: &TwiddleTable,
    radix_table: &TwiddleTable,
    src_re: &[f64],
    src_im: &[f64],
    dst_re: &mut [f64],
    dst_im: &mut [f64],
) {
    debug_assert!(r <= 32);
    let sl = s * lanes;
    let mut t = [Complex64::ZERO; 32];
    let mut w1 = 0usize;
    for (p, (out_re, out_im)) in butterflies(dst_re, dst_im, r * sl) {
        for q in 0..sl {
            for (u, slot) in t[..r].iter_mut().enumerate() {
                let at = q + sl * (p + u * m);
                *slot = Complex64::new(src_re[at], src_im[at]);
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
                let out = acc * table.factor(v * w1);
                out_re[q + sl * v] = out.re;
                out_im[q + sl * v] = out.im;
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
        plan.execute(&mut y, &mut BatchScratch::default());
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
            let mut scratch = BatchScratch::default();
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
        plan.execute(&mut y, &mut BatchScratch::default());
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

    /// `lanes` distinct lines, and the planes of the block that holds them.
    fn interleaved(n: usize, lanes: usize) -> (Vec<Vec<Complex64>>, [Vec<f64>; 2]) {
        let lines: Vec<Vec<Complex64>> = (0..lanes)
            .map(|l| {
                signal(n)
                    .into_iter()
                    .map(|v| v * Complex64::new(1.0 + l as f64, 0.5 - l as f64))
                    .collect()
            })
            .collect();
        let mut planes = [vec![0.0; n * lanes], vec![0.0; n * lanes]];
        let [re, im] = &mut planes;
        let mut block = Block::new(re, im, lanes);
        for (l, line) in lines.iter().enumerate() {
            block.load_lane(l, line, 1);
        }
        (lines, planes)
    }

    fn lane_of(block: &Block<'_>, lane: usize) -> Vec<Complex64> {
        let mut line = vec![Complex64::ZERO; block.line_len()];
        block.store_lane(lane, &mut line, 1);
        line
    }

    /// Runs `stage` as the only stage of a length-`r` transform over
    /// `lanes` lines and checks every lane against the `r`-point DFT.
    fn check_stage(
        r: usize,
        dir: Direction,
        stage: impl Fn(usize, &TwiddleTable, &[f64], &[f64], &mut [f64], &mut [f64]),
    ) {
        let table = TwiddleTable::new(r, dir);
        for lanes in [1usize, 2, 3, 8] {
            let (lines, [src_re, src_im]) = interleaved(r, lanes);
            let (mut re, mut im) = (vec![0.0; r * lanes], vec![0.0; r * lanes]);
            stage(lanes, &table, &src_re, &src_im, &mut re, &mut im);
            let dst = Block::new(&mut re, &mut im, lanes);
            for (l, line) in lines.iter().enumerate() {
                let err = max_abs_diff(&lane_of(&dst, l), &dft(line, dir));
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
            check_stage(2, dir, |lanes, t, sr, si, dr, di| {
                stage2(1, 1, lanes, 2, t, sr, si, dr, di)
            });
            check_stage(3, dir, |lanes, t, sr, si, dr, di| {
                stage3(dir, 1, 1, lanes, 3, t, sr, si, dr, di)
            });
            check_stage(4, dir, |lanes, t, sr, si, dr, di| match dir {
                Direction::Forward => stage4::<true>(1, 1, lanes, 4, t, sr, si, dr, di),
                Direction::Backward => stage4::<false>(1, 1, lanes, 4, t, sr, si, dr, di),
            });
            check_stage(5, dir, |lanes, t, sr, si, dr, di| {
                stage5(dir, 1, 1, lanes, 5, t, sr, si, dr, di)
            });
            check_stage(7, dir, |lanes, t, sr, si, dr, di| {
                stage_generic(7, 1, 1, lanes, 7, t, t, sr, si, dr, di)
            });
        }
    }

    #[test]
    fn lanes_reproduce_the_single_line_bit_for_bit() {
        let mut scratch = BatchScratch::default();
        // Lengths whose stages cover every radix at several (m, s).
        for n in [1usize, 2, 6, 8, 9, 25, 30, 49, 60, 96, 128, 7 * 16] {
            for dir in [Direction::Forward, Direction::Backward] {
                let plan = MixedRadixPlan::new(n, dir).unwrap();
                for lanes in [1usize, 2, 3, 8] {
                    let (lines, [mut a_re, mut a_im]) = interleaved(n, lanes);
                    let (mut b_re, mut b_im) = (vec![0.0; n * lanes], vec![0.0; n * lanes]);
                    let mut a = Block::new(&mut a_re, &mut a_im, lanes);
                    let mut b = Block::new(&mut b_re, &mut b_im, lanes);
                    let in_a = plan.execute_lanes(&mut a, &mut b);
                    assert_eq!(in_a, plan.factors().len() % 2 == 0);
                    let out = if in_a { &a } else { &b };
                    for (l, line) in lines.iter().enumerate() {
                        let mut alone = line.clone();
                        plan.execute(&mut alone, &mut scratch);
                        for (j, (got, want)) in lane_of(out, l).iter().zip(&alone).enumerate() {
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
