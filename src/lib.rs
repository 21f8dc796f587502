//! # fft3d-repro — reproduction of "Designing and Auto-Tuning Parallel 3-D
//! FFT for Computation-Communication Overlap" (PPoPP 2014)
//!
//! This meta-crate re-exports the workspace members and provides the glue
//! helpers the `examples/` binaries share. Start with:
//!
//! * [`fft3d`] — the overlapped, auto-tunable distributed 3-D FFT;
//! * [`cfft`] — the serial FFT substrate;
//! * [`mpisim`] — the MPI-semantics thread runtime (real data);
//! * [`simnet`] — the calibrated cluster simulator;
//! * [`tuner`] — the Nelder–Mead auto-tuner;
//! * [`conformance`] — the table of rows every check of the transform runs.
//!
//! See README.md for a tour and DESIGN.md for the paper-to-code map.

#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::float_cmp))]

pub mod conformance;

pub use cfft;
pub use fft3d;
pub use mpisim;
pub use simnet;
pub use tuner;

use cfft::Complex64;
use fft3d::decomp::Decomp;
use fft3d::real_env::{OutLayout, RunOutput};
use fft3d::ProblemSpec;
use mpisim::Comm;

/// Gathers every rank's y-slab output into the full `x-y-z` array,
/// delivered to all ranks.
///
/// Convenience for examples and round-trip tests at laptop scale; real
/// applications keep data distributed.
pub fn gather_full(comm: &Comm, spec: &ProblemSpec, out: &RunOutput) -> Vec<Complex64> {
    let decomp = Decomp::new(spec.nx, spec.ny, spec.p);
    let contributions = comm.allgather(&out.data);
    // Layouts may differ per rank only if specs differ — they don't; use
    // the caller's.
    let mut full = vec![Complex64::ZERO; spec.len()];
    let mut offset = 0;
    for r in 0..spec.p {
        let nyl = decomp.y.count(r);
        let yoff = decomp.y.offset(r);
        let len = spec.nz * nyl * spec.nx;
        let slab = &contributions[offset..offset + len];
        for z in 0..spec.nz {
            for yl in 0..nyl {
                for x in 0..spec.nx {
                    let v = match out.layout {
                        OutLayout::Zyx => slab[(z * nyl + yl) * spec.nx + x],
                        OutLayout::Yzx => slab[(yl * spec.nz + z) * spec.nx + x],
                    };
                    full[(x * spec.ny + (yoff + yl)) * spec.nz + z] = v;
                }
            }
        }
        offset += len;
    }
    full
}

/// Extracts this rank's x-slab (in `x-y-z` layout) from a full array —
/// the inverse of [`gather_full`]'s assembly, used to chain transforms.
pub fn extract_slab(full: &[Complex64], spec: &ProblemSpec, rank: usize) -> Vec<Complex64> {
    let decomp = Decomp::new(spec.nx, spec.ny, spec.p);
    let nxl = decomp.x.count(rank);
    let xoff = decomp.x.offset(rank);
    let mut slab = Vec::with_capacity(nxl * spec.ny * spec.nz);
    for xl in 0..nxl {
        for y in 0..spec.ny {
            for z in 0..spec.nz {
                slab.push(full[((xoff + xl) * spec.ny + y) * spec.nz + z]);
            }
        }
    }
    slab
}

/// Angular wavenumber for bin `k` of an `n`-point DFT on a domain of
/// length `2π`: the symmetric frequency `k` or `k − n`.
pub fn wavenumber(k: usize, n: usize) -> f64 {
    if k <= n / 2 {
        k as f64
    } else {
        k as f64 - n as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cfft::planner::Rigor;
    use cfft::Direction;
    use fft3d::real_env::local_test_slab;
    use fft3d::serial::{fft3_serial, full_test_array};
    use fft3d::{FftSession, TuningParams, Variant};

    #[test]
    fn gather_full_reassembles_the_reference() {
        let spec = ProblemSpec::cube(8, 2);
        let params = TuningParams::seed(&spec);
        let mut reference = full_test_array(8, 8, 8);
        fft3_serial(&mut reference, 8, 8, 8, Direction::Forward);

        let fulls = mpisim::run(spec.p, move |comm| {
            let input = local_test_slab(&spec, comm.rank());
            let out = FftSession::new(
                &comm,
                spec,
                Variant::New,
                params,
                Direction::Forward,
                Rigor::Estimate,
            )
            .execute(&input)
            .expect("clean run");
            gather_full(&comm, &spec, &out)
        });
        for full in fulls {
            let err = cfft::complex::max_abs_diff(&full, &reference);
            assert!(err < 1e-8, "err={err}");
        }
    }

    #[test]
    fn extract_slab_inverts_generation() {
        let spec = ProblemSpec::cube(6, 3);
        let full = full_test_array(6, 6, 6);
        for r in 0..spec.p {
            let slab = extract_slab(&full, &spec, r);
            assert_eq!(slab, local_test_slab(&spec, r));
        }
    }

    #[test]
    fn wavenumbers_are_symmetric() {
        assert_eq!(wavenumber(0, 8), 0.0);
        assert_eq!(wavenumber(4, 8), 4.0);
        assert_eq!(wavenumber(5, 8), -3.0);
        assert_eq!(wavenumber(7, 8), -1.0);
    }
}
