//! Blocked memory-layout rearrangements.
//!
//! The paper leans on "the FFTW guru interface … to execute a
//! high-performance routine of memory rearrangement" for its Transpose step
//! (§3.1), and on a cheaper `x-y-z → x-z-y` rearrangement when `Nx = Ny`
//! (§3.5). This module provides those routines: a generic cache-blocked 3-D
//! axis permutation plus a specialised 2-D blocked transpose. (The real
//! pipeline rearranges plane by plane inside its FFTz step; these whole-array
//! routines are what `fftperf` measures as the memory-bandwidth yardstick.)

use crate::complex::Complex64;

/// Cache block edge (elements). 16³ complex = 64 KiB ≈ L1-friendly tiles.
const BLOCK: usize = 16;

/// Dimensions of a 3-D array in row-major order: index of `(i0, i1, i2)` is
/// `(i0·n1 + i1)·n2 + i2`, so axis 2 is contiguous.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Dims3 {
    /// Slowest axis extent.
    pub n0: usize,
    /// Middle axis extent.
    pub n1: usize,
    /// Fastest (contiguous) axis extent.
    pub n2: usize,
}

impl Dims3 {
    /// Constructs dimensions.
    pub fn new(n0: usize, n1: usize, n2: usize) -> Self {
        Dims3 { n0, n1, n2 }
    }

    /// Total element count.
    pub fn len(&self) -> usize {
        self.n0 * self.n1 * self.n2
    }

    /// `true` when any axis is zero.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Flat index of `(i0, i1, i2)`.
    #[inline(always)]
    pub fn idx(&self, i0: usize, i1: usize, i2: usize) -> usize {
        (i0 * self.n1 + i1) * self.n2 + i2
    }

    /// Extent of the given axis (0, 1 or 2).
    #[inline]
    pub fn axis(&self, a: usize) -> usize {
        match a {
            0 => self.n0,
            1 => self.n1,
            2 => self.n2,
            _ => panic!("axis out of range: {a}"),
        }
    }
}

/// A permutation of the three axes. `perm[d] = s` means destination axis `d`
/// is source axis `s`.
pub type AxisPerm = [usize; 3];

/// `x-y-z → z-x-y` (paper's default Transpose step).
pub const XYZ_TO_ZXY: AxisPerm = [2, 0, 1];
/// `x-y-z → x-z-y` (paper's §3.5 fast path for `Nx = Ny`).
pub const XYZ_TO_XZY: AxisPerm = [0, 2, 1];
/// Identity permutation.
pub const IDENTITY: AxisPerm = [0, 1, 2];

/// Destination dimensions after applying `perm` to `src`.
pub fn permuted_dims(src: Dims3, perm: AxisPerm) -> Dims3 {
    validate_perm(perm);
    Dims3::new(src.axis(perm[0]), src.axis(perm[1]), src.axis(perm[2]))
}

fn validate_perm(perm: AxisPerm) {
    let mut seen = [false; 3];
    for &p in &perm {
        assert!(p < 3, "axis index out of range");
        assert!(!seen[p], "permutation repeats an axis");
        seen[p] = true;
    }
}

/// Permutes the axes of `src` (dims `sd`) into `dst`, cache-blocked.
///
/// `dst.len()` must equal `src.len()`; the two must not alias (guaranteed by
/// `&`/`&mut`).
pub fn permute3(src: &[Complex64], dst: &mut [Complex64], sd: Dims3, perm: AxisPerm) {
    validate_perm(perm);
    assert_eq!(src.len(), sd.len(), "source buffer does not match dims");
    assert_eq!(
        dst.len(),
        sd.len(),
        "destination buffer does not match dims"
    );
    let dd = permuted_dims(sd, perm);

    // Inverse permutation: source axis s appears at destination axis inv[s].
    let mut inv = [0usize; 3];
    for (d, &s) in perm.iter().enumerate() {
        inv[s] = d;
    }
    // Destination strides seen from source-axis order.
    let dstrides = [dd.n1 * dd.n2, dd.n2, 1];
    let s_to_dstride = [dstrides[inv[0]], dstrides[inv[1]], dstrides[inv[2]]];

    // Blocked loops over the source, contiguous reads on the inner axis.
    for b0 in (0..sd.n0).step_by(BLOCK) {
        let e0 = (b0 + BLOCK).min(sd.n0);
        for b1 in (0..sd.n1).step_by(BLOCK) {
            let e1 = (b1 + BLOCK).min(sd.n1);
            for b2 in (0..sd.n2).step_by(BLOCK) {
                let e2 = (b2 + BLOCK).min(sd.n2);
                for i0 in b0..e0 {
                    for i1 in b1..e1 {
                        let srow = (i0 * sd.n1 + i1) * sd.n2;
                        let dbase = i0 * s_to_dstride[0] + i1 * s_to_dstride[1];
                        for i2 in b2..e2 {
                            dst[dbase + i2 * s_to_dstride[2]] = src[srow + i2];
                        }
                    }
                }
            }
        }
    }
}

/// Blocked out-of-place 2-D transpose: `dst[c][r] = src[r][c]` for an
/// `rows × cols` row-major matrix.
pub fn transpose2(src: &[Complex64], dst: &mut [Complex64], rows: usize, cols: usize) {
    assert_eq!(src.len(), rows * cols, "source buffer does not match dims");
    assert_eq!(
        dst.len(),
        rows * cols,
        "destination buffer does not match dims"
    );
    for br in (0..rows).step_by(BLOCK) {
        let er = (br + BLOCK).min(rows);
        for bc in (0..cols).step_by(BLOCK) {
            let ec = (bc + BLOCK).min(cols);
            for r in br..er {
                for c in bc..ec {
                    dst[c * rows + r] = src[r * cols + c];
                }
            }
        }
    }
}

/// The §3.5 fast path: `x-y-z → x-z-y` as `n0` independent 2-D transposes of
/// the trailing `(n1, n2)` planes. Strictly less data movement distance than
/// the generic permutation, which is why the paper prefers it when legal.
pub fn xzy_fast(src: &[Complex64], dst: &mut [Complex64], sd: Dims3) {
    assert_eq!(src.len(), sd.len(), "source buffer does not match dims");
    assert_eq!(
        dst.len(),
        sd.len(),
        "destination buffer does not match dims"
    );
    let plane = sd.n1 * sd.n2;
    for i0 in 0..sd.n0 {
        transpose2(
            &src[i0 * plane..(i0 + 1) * plane],
            &mut dst[i0 * plane..(i0 + 1) * plane],
            sd.n1,
            sd.n2,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill(d: Dims3) -> Vec<Complex64> {
        (0..d.len())
            .map(|i| Complex64::new(i as f64, -(i as f64)))
            .collect()
    }

    #[test]
    fn zxy_permutation_is_correct() {
        let sd = Dims3::new(3, 4, 5); // x, y, z
        let src = fill(sd);
        let mut dst = vec![Complex64::ZERO; sd.len()];
        permute3(&src, &mut dst, sd, XYZ_TO_ZXY);
        let dd = permuted_dims(sd, XYZ_TO_ZXY);
        assert_eq!(dd, Dims3::new(5, 3, 4));
        for x in 0..3 {
            for y in 0..4 {
                for z in 0..5 {
                    assert_eq!(dst[dd.idx(z, x, y)], src[sd.idx(x, y, z)]);
                }
            }
        }
    }

    #[test]
    fn xzy_permutation_matches_fast_path() {
        let sd = Dims3::new(4, 6, 7);
        let src = fill(sd);
        let mut a = vec![Complex64::ZERO; sd.len()];
        let mut b = vec![Complex64::ZERO; sd.len()];
        permute3(&src, &mut a, sd, XYZ_TO_XZY);
        xzy_fast(&src, &mut b, sd);
        assert_eq!(a, b);
    }

    #[test]
    fn identity_permutation_copies() {
        let sd = Dims3::new(2, 3, 4);
        let src = fill(sd);
        let mut dst = vec![Complex64::ZERO; sd.len()];
        permute3(&src, &mut dst, sd, IDENTITY);
        assert_eq!(src, dst);
    }

    #[test]
    fn permutation_round_trip() {
        // Applying zxy twice more returns to the original order (3-cycle).
        let sd = Dims3::new(5, 6, 7);
        let src = fill(sd);
        let mut a = vec![Complex64::ZERO; sd.len()];
        let mut b = vec![Complex64::ZERO; sd.len()];
        let mut c = vec![Complex64::ZERO; sd.len()];
        permute3(&src, &mut a, sd, XYZ_TO_ZXY);
        let da = permuted_dims(sd, XYZ_TO_ZXY);
        permute3(&a, &mut b, da, XYZ_TO_ZXY);
        let db = permuted_dims(da, XYZ_TO_ZXY);
        permute3(&b, &mut c, db, XYZ_TO_ZXY);
        assert_eq!(src, c);
    }

    #[test]
    fn transpose2_blocked_vs_naive() {
        let (r, cdim) = (37, 23); // deliberately not multiples of BLOCK
        let src: Vec<Complex64> = (0..r * cdim)
            .map(|i| Complex64::new(i as f64, 0.5 * i as f64))
            .collect();
        let mut dst = vec![Complex64::ZERO; r * cdim];
        transpose2(&src, &mut dst, r, cdim);
        for i in 0..r {
            for j in 0..cdim {
                assert_eq!(dst[j * r + i], src[i * cdim + j]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "repeats an axis")]
    fn duplicate_axis_rejected() {
        let sd = Dims3::new(2, 2, 2);
        let src = fill(sd);
        let mut dst = vec![Complex64::ZERO; sd.len()];
        permute3(&src, &mut dst, sd, [0, 0, 1]);
    }

    #[test]
    fn degenerate_axes() {
        let sd = Dims3::new(1, 1, 8);
        let src = fill(sd);
        let mut dst = vec![Complex64::ZERO; sd.len()];
        permute3(&src, &mut dst, sd, XYZ_TO_ZXY);
        // z-x-y of a 1×1×8 array is an 8×1×1 array with the same flat data.
        assert_eq!(src, dst);
    }
}
