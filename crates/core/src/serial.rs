//! Serial reference 3-D FFT.
//!
//! The executable specification every distributed variant is verified
//! against: `d` 1-D transform sweeps along each axis (§2.1), performed
//! directly — and in place — on an `x-y-z` row-major array, the `z` and `y`
//! sweeps in one walk over the x-planes and the `x` sweep in a second. No
//! axis is ever made contiguous by a reorder pass: the `y` and `x` lines are
//! handed to [`cfft::batch`] as strided batches whose lines are neighbours in
//! memory (`dist = 1`), which it gathers a block at a time and transforms at
//! the contiguous speed.

use crate::params::ProblemSpec;
use cfft::batch::{execute_batch, BatchLayout, BatchScratch};
use cfft::planner::Rigor;
use cfft::{Complex64, Direction, PlanCache};
use std::ops::Range;

/// Computes the full 3-D FFT of `data` (layout `x-y-z`, z contiguous, size
/// `nx·ny·nz`) in place.
pub fn fft3_serial(data: &mut [Complex64], nx: usize, ny: usize, nz: usize, dir: Direction) {
    assert_eq!(data.len(), nx * ny * nz, "array does not match dimensions");
    if data.is_empty() {
        return;
    }
    // Plans come from the process-wide cache: repeated reference transforms
    // of the same geometry (every test does this) never replan.
    let cache = PlanCache::global();
    let mut scratch = BatchScratch::default();

    // The z and y sweeps go plane by plane, so a plane's y lines are
    // transformed while the z sweep has just left it in cache. z lines are
    // contiguous, laid end to end; the `nz` y lines of an x-plane start at
    // consecutive elements and step by a z-row.
    let plan_z = cache.plan(nz, dir, Rigor::Estimate);
    let plan_y = cache.plan(ny, dir, Rigor::Estimate);
    let z_lines = BatchLayout::contiguous(nz, ny);
    let y_lines = BatchLayout {
        howmany: nz,
        stride: nz,
        dist: 1,
    };
    for plane in data.chunks_exact_mut(ny * nz) {
        execute_batch(&plan_z, plane, z_lines, &mut scratch);
        execute_batch(&plan_y, plane, y_lines, &mut scratch);
    }

    // x lines: all `ny·nz` of them start at consecutive elements and step by
    // an x-plane.
    let plan_x = cache.plan(nx, dir, Rigor::Estimate);
    let x_lines = BatchLayout {
        howmany: ny * nz,
        stride: ny * nz,
        dist: 1,
    };
    execute_batch(&plan_x, data, x_lines, &mut scratch);
}

/// Convenience: serial 3-D FFT of a [`ProblemSpec`]-shaped array.
pub fn fft3_serial_spec(data: &mut [Complex64], spec: &ProblemSpec, dir: Direction) {
    fft3_serial(data, spec.nx, spec.ny, spec.nz, dir);
}

/// Deterministic pseudo-random test field: value depends only on global
/// coordinates, so ranks can generate their slabs independently.
pub fn test_field(x: usize, y: usize, z: usize) -> Complex64 {
    // SplitMix-style hash of the coordinates, mapped into [-1, 1).
    let mut h = (x as u64)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((y as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add((z as u64).wrapping_mul(0x94d0_49bb_1331_11eb));
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    let re = (h & 0xffff_ffff) as f64 / 2f64.powi(31) - 1.0;
    let im = (h >> 32) as f64 / 2f64.powi(31) - 1.0;
    Complex64::new(re, im)
}

/// The `xs × ys × 0..nz` block of the field `f`, in `x-y-z` order — the one
/// loop nest behind every slab, pencil and full-array builder of the crate.
pub(crate) fn block(
    xs: Range<usize>,
    ys: Range<usize>,
    nz: usize,
    f: impl Fn(usize, usize, usize) -> Complex64,
) -> Vec<Complex64> {
    let mut v = Vec::with_capacity(xs.len() * ys.len() * nz);
    for x in xs {
        for y in ys.clone() {
            for z in 0..nz {
                v.push(f(x, y, z));
            }
        }
    }
    v
}

/// Fills a full `x-y-z` array with [`test_field`].
pub fn full_test_array(nx: usize, ny: usize, nz: usize) -> Vec<Complex64> {
    block(0..nx, 0..ny, nz, test_field)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfft::complex::max_abs_diff;
    use cfft::dft::dft;

    /// Brute-force 3-D DFT by three naive sweeps.
    fn fft3_naive(data: &[Complex64], nx: usize, ny: usize, nz: usize) -> Vec<Complex64> {
        let idx = |x: usize, y: usize, z: usize| (x * ny + y) * nz + z;
        let mut a = data.to_vec();
        // z sweep
        for x in 0..nx {
            for y in 0..ny {
                let line: Vec<Complex64> = (0..nz).map(|z| a[idx(x, y, z)]).collect();
                let out = dft(&line, Direction::Forward);
                for z in 0..nz {
                    a[idx(x, y, z)] = out[z];
                }
            }
        }
        // y sweep
        for x in 0..nx {
            for z in 0..nz {
                let line: Vec<Complex64> = (0..ny).map(|y| a[idx(x, y, z)]).collect();
                let out = dft(&line, Direction::Forward);
                for y in 0..ny {
                    a[idx(x, y, z)] = out[y];
                }
            }
        }
        // x sweep
        for y in 0..ny {
            for z in 0..nz {
                let line: Vec<Complex64> = (0..nx).map(|x| a[idx(x, y, z)]).collect();
                let out = dft(&line, Direction::Forward);
                for x in 0..nx {
                    a[idx(x, y, z)] = out[x];
                }
            }
        }
        a
    }

    #[test]
    fn matches_naive_3d_dft() {
        for (nx, ny, nz) in [(4, 4, 4), (8, 4, 2), (3, 5, 7), (6, 6, 6), (16, 8, 12)] {
            let x = full_test_array(nx, ny, nz);
            let mut got = x.clone();
            fft3_serial(&mut got, nx, ny, nz, Direction::Forward);
            let want = fft3_naive(&x, nx, ny, nz);
            let err = max_abs_diff(&got, &want);
            assert!(
                err < 1e-8 * (nx * ny * nz) as f64,
                "{nx}x{ny}x{nz} err={err}"
            );
        }
    }

    #[test]
    fn round_trip_scales_by_volume() {
        let (nx, ny, nz) = (8, 6, 10);
        let x = full_test_array(nx, ny, nz);
        let mut v = x.clone();
        fft3_serial(&mut v, nx, ny, nz, Direction::Forward);
        fft3_serial(&mut v, nx, ny, nz, Direction::Backward);
        let n = (nx * ny * nz) as f64;
        let rescaled: Vec<Complex64> = v.into_iter().map(|z| z / n).collect();
        assert!(max_abs_diff(&rescaled, &x) < 1e-9 * n);
    }

    #[test]
    fn dc_bin_is_the_sum() {
        let (nx, ny, nz) = (4, 4, 4);
        let x = full_test_array(nx, ny, nz);
        let sum: Complex64 = x.iter().copied().sum();
        let mut v = x;
        fft3_serial(&mut v, nx, ny, nz, Direction::Forward);
        assert!((v[0] - sum).abs() < 1e-9);
    }

    #[test]
    fn test_field_is_deterministic_and_spread() {
        assert_eq!(test_field(1, 2, 3), test_field(1, 2, 3));
        assert_ne!(test_field(1, 2, 3), test_field(3, 2, 1));
        let v = full_test_array(8, 8, 8);
        let mean: f64 = v.iter().map(|z| z.re).sum::<f64>() / v.len() as f64;
        assert!(mean.abs() < 0.2, "mean={mean}");
    }
}
