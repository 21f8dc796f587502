//! Quickstart: a distributed 3-D FFT on 4 ranks, verified against the
//! serial reference, with the per-step breakdown printed.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

#![cfg_attr(not(test), deny(clippy::disallowed_methods, clippy::float_cmp))]

use cfft::planner::Rigor;
use cfft::Direction;
use fft3d::real_env::{compare_with_serial, local_test_slab};
use fft3d::serial::{fft3_serial, full_test_array};
use fft3d::{FftSession, ProblemSpec, TuningParams, Variant};

fn main() {
    // 64³ complex points across 4 ranks (threads standing in for MPI
    // processes), tiled into communication tiles with a window of 2.
    let spec = ProblemSpec::cube(64, 4);
    let params = TuningParams::seed(&spec);
    println!("problem: {}³ complex points on {} ranks", spec.nx, spec.p);
    println!("parameters (§4.4 seed): {params:?}\n");

    // Serial reference for verification.
    let mut reference = full_test_array(spec.nx, spec.ny, spec.nz);
    fft3_serial(
        &mut reference,
        spec.nx,
        spec.ny,
        spec.nz,
        Direction::Forward,
    );
    let reference = std::sync::Arc::new(reference);

    let results = mpisim::run(spec.p, {
        let reference = reference.clone();
        move |comm| {
            // Each rank owns an x-slab of the input in x-y-z layout.
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
            .expect("the seed vector is feasible");
            let err = compare_with_serial(&spec, comm.rank(), &out, &reference);
            (err, out.stats)
        }
    });

    let mut worst = 0.0f64;
    for (rank, (err, stats)) in results.iter().enumerate() {
        worst = worst.max(*err);
        if rank == 0 {
            println!("rank 0 step breakdown:\n{}", stats.steps);
            println!("\nrank 0 MPI_Test calls: {}", stats.tests);
        }
    }
    println!("\nmax |distributed − serial| across ranks: {worst:.3e}");
    assert!(worst < 1e-9, "verification failed");
    println!("verified ✓");
}
