//! Cross-crate integration: every distributed variant, on real data over
//! the thread runtime, must match the serial reference transform — across
//! problem shapes, divisibility, directions and window sizes.

use cfft::planner::Rigor;
use cfft::Direction;
use fft3d::real_env::{compare_with_serial, local_test_slab};
use fft3d::serial::{fft3_serial, full_test_array};
use fft3d::{FftSession, ProblemSpec, TuningParams, Variant};
use std::sync::Arc;

fn reference(spec: &ProblemSpec, dir: Direction) -> Arc<Vec<cfft::Complex64>> {
    let mut r = full_test_array(spec.nx, spec.ny, spec.nz);
    fft3_serial(&mut r, spec.nx, spec.ny, spec.nz, dir);
    Arc::new(r)
}

fn check(spec: ProblemSpec, variant: Variant, params: TuningParams, dir: Direction) {
    let r = reference(&spec, dir);
    let errs = mpisim::run(spec.p, move |comm| {
        let input = local_test_slab(&spec, comm.rank());
        let out = FftSession::new(&comm, spec, variant, params, dir, Rigor::Estimate)
            .execute(&input)
            .expect("clean run");
        compare_with_serial(&spec, comm.rank(), &out, &r)
    });
    let tol = 1e-9 * spec.len() as f64;
    for (rank, e) in errs.iter().enumerate() {
        assert!(
            *e < tol,
            "rank {rank}: err {e:.3e} for {spec:?} {variant:?} {dir:?} {params:?}"
        );
    }
}

#[test]
fn all_variants_agree_on_a_cube() {
    let spec = ProblemSpec::cube(24, 4);
    let params = TuningParams::seed(&spec);
    for variant in [Variant::New, Variant::Th, Variant::Fftw] {
        check(spec, variant, params, Direction::Forward);
    }
}

#[test]
fn window_sizes_sweep() {
    let spec = ProblemSpec::cube(32, 4);
    for w in [1usize, 2, 3, 4] {
        let params = TuningParams {
            w,
            t: 8,
            ..TuningParams::seed(&spec)
        };
        check(spec, Variant::New, params, Direction::Forward);
    }
}

#[test]
fn tile_sizes_sweep_including_non_dividing() {
    let spec = ProblemSpec::cube(20, 2);
    for t in [1usize, 3, 7, 10, 20] {
        let params = TuningParams {
            t,
            w: 2.min(spec.nz.div_ceil(t)),
            pz: t.min(2),
            uz: t.min(2),
            ..TuningParams::seed(&spec)
        };
        check(spec, Variant::New, params, Direction::Forward);
    }
}

#[test]
fn subtile_shapes_sweep() {
    let spec = ProblemSpec::cube(16, 2);
    for (px, pz, uy, uz) in [(1, 1, 1, 1), (8, 4, 8, 4), (3, 2, 5, 3), (8, 8, 8, 8)] {
        let params = TuningParams {
            px,
            pz: pz.min(4),
            uy,
            uz: uz.min(4),
            t: 4,
            w: 2,
            fy: 3,
            fp: 2,
            fu: 2,
            fx: 3,
            threads: 1,
        };
        check(spec, Variant::New, params, Direction::Forward);
    }
}

#[test]
fn rectangular_boxes() {
    for (nx, ny, nz) in [(8, 12, 16), (16, 8, 12), (12, 16, 8), (5, 6, 7)] {
        let spec = ProblemSpec { nx, ny, nz, p: 2 };
        let params = TuningParams {
            t: (nz / 3).max(1),
            w: 2,
            px: 2,
            pz: 1,
            uy: 2,
            uz: 1,
            fy: 2,
            fp: 2,
            fu: 2,
            fx: 2,
            threads: 1,
        };
        check(spec, Variant::New, params, Direction::Forward);
    }
}

#[test]
fn non_divisible_process_counts() {
    // Nx mod p ≠ 0, Ny mod p ≠ 0 — the alltoallv path.
    for p in [3usize, 5, 7] {
        let spec = ProblemSpec {
            nx: 16,
            ny: 17,
            nz: 12,
            p,
        };
        let params = TuningParams {
            t: 4,
            w: 2,
            px: 1,
            pz: 2,
            uy: 1,
            uz: 2,
            fy: 1,
            fp: 1,
            fu: 1,
            fx: 1,
            threads: 1,
        };
        check(spec, Variant::New, params, Direction::Forward);
    }
}

#[test]
fn more_ranks_than_planes() {
    // Some ranks own empty slabs.
    let spec = ProblemSpec {
        nx: 3,
        ny: 5,
        nz: 8,
        p: 5,
    };
    let params = TuningParams {
        t: 4,
        w: 1,
        px: 1,
        pz: 1,
        uy: 1,
        uz: 1,
        fy: 1,
        fp: 1,
        fu: 1,
        fx: 1,
        threads: 1,
    };
    check(spec, Variant::New, params, Direction::Forward);
}

#[test]
fn backward_of_forward_is_identity_scaled() {
    let spec = ProblemSpec::cube(16, 4);
    let params = TuningParams::seed(&spec);
    let original = Arc::new(full_test_array(spec.nx, spec.ny, spec.nz));

    let errs = mpisim::run(spec.p, {
        let original = original.clone();
        move |comm| {
            let input = local_test_slab(&spec, comm.rank());
            let fwd = FftSession::new(
                &comm,
                spec,
                Variant::New,
                params,
                Direction::Forward,
                Rigor::Estimate,
            )
            .execute(&input)
            .expect("clean run");
            let full_spectrum = fft3d_repro::gather_full(&comm, &spec, &fwd);
            let spec_slab = fft3d_repro::extract_slab(&full_spectrum, &spec, comm.rank());
            let bwd = FftSession::new(
                &comm,
                spec,
                Variant::New,
                params,
                Direction::Backward,
                Rigor::Estimate,
            )
            .execute(&spec_slab)
            .expect("clean run");
            let full = fft3d_repro::gather_full(&comm, &spec, &bwd);
            let scale = 1.0 / spec.len() as f64;
            original
                .iter()
                .zip(&full)
                .map(|(a, b)| (*a - b.scale(scale)).abs())
                .fold(0.0f64, f64::max)
        }
    });
    for e in errs {
        assert!(e < 1e-9, "round trip error {e:.3e}");
    }
}

#[test]
fn awkward_prime_extents() {
    // Bluestein path inside the distributed pipeline (37 is prime > 31).
    let spec = ProblemSpec {
        nx: 37,
        ny: 8,
        nz: 8,
        p: 2,
    };
    let params = TuningParams {
        t: 4,
        w: 2,
        px: 4,
        pz: 2,
        uy: 2,
        uz: 2,
        fy: 2,
        fp: 2,
        fu: 2,
        fx: 2,
        threads: 1,
    };
    check(spec, Variant::New, params, Direction::Forward);
}
