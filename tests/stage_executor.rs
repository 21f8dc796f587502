//! The slab exchange and the pencil exchanges are one program: on the
//! degenerate `p×1` grid the pencil transform *is* the slab transform — it
//! takes the slab's input (x split over the rows, y whole), its column
//! stage is the slab's stage (z tiled, y split, x completed) and its output
//! is the slab's y-slab in `(y_l, z, x)` order. Both run on the one real
//! stage executor, so their spectra must agree to the bit, with each other
//! and with the serial reference, whatever the tiling and the window.

use cfft::{Complex64, Direction, Rigor};
use fft3d::decomp::AxisSplit;
use fft3d::real_env::local_test_slab;
use fft3d::serial::{fft3_serial, full_test_array};
use fft3d::{
    FftSession, OutLayout, PencilGrid, PencilSession, ProblemSpec, RunOutput, TuningParams, Variant,
};
use std::sync::Arc;

fn bits(data: &[Complex64]) -> Vec<(u64, u64)> {
    data.iter()
        .map(|c| (c.re.to_bits(), c.im.to_bits()))
        .collect()
}

/// A slab output in the pencil's `(y_l, z, x)` order.
fn as_yzx(spec: &ProblemSpec, out: &RunOutput) -> Vec<Complex64> {
    let (nx, nz) = (spec.nx, spec.nz);
    let nyl = out.data.len() / (nx * nz);
    match out.layout {
        OutLayout::Yzx => out.data.clone(),
        OutLayout::Zyx => (0..nyl * nz)
            .flat_map(|i| {
                let (yl, z) = (i / nz, i % nz);
                out.data[(z * nyl + yl) * nx..][..nx].iter().copied()
            })
            .collect(),
    }
}

/// The rank's `(y_l, z, x)` block of the serial spectrum (`x-y-z` layout).
fn serial_yzx(spec: &ProblemSpec, rank: usize, reference: &[Complex64]) -> Vec<Complex64> {
    let ys = AxisSplit::new(spec.ny, spec.p);
    let mut block = Vec::new();
    for y in ys.offset(rank)..ys.offset(rank) + ys.count(rank) {
        for z in 0..spec.nz {
            for x in 0..spec.nx {
                block.push(reference[(x * spec.ny + y) * spec.nz + z]);
            }
        }
    }
    block
}

#[test]
fn the_degenerate_pencil_grid_is_the_slab_transform_bit_for_bit() {
    let specs = [
        // Nx = Ny: the slab takes its fast-transpose path (`OutLayout::Yzx`).
        ProblemSpec::cube(8, 2),
        // A rectangular box: the generic path (`OutLayout::Zyx`).
        ProblemSpec {
            nx: 12,
            ny: 8,
            nz: 10,
            p: 4,
        },
        // Neither Nx nor Ny divides by p, and a short last tile.
        ProblemSpec {
            nx: 10,
            ny: 9,
            nz: 7,
            p: 4,
        },
        // More ranks than planes: two ranks hold nothing on either side.
        ProblemSpec {
            nx: 3,
            ny: 3,
            nz: 4,
            p: 5,
        },
    ];
    for spec in specs {
        let grid = PencilGrid { pr: spec.p, pc: 1 };
        for dir in [Direction::Forward, Direction::Backward] {
            let mut reference = full_test_array(spec.nx, spec.ny, spec.nz);
            fft3_serial(&mut reference, spec.nx, spec.ny, spec.nz, dir);
            let reference = Arc::new(reference);
            // One plane per tile, a tile size that does not divide Nz, and
            // the whole axis in one tile; no overlap and a window of two
            // (as far as the slab's validation lets a window go).
            for t in [1, 3, spec.nz] {
                for w in [0usize, 2] {
                    let params = TuningParams {
                        t,
                        w: w.min(spec.nz.div_ceil(t)),
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
                    let reference = Arc::clone(&reference);
                    mpisim::run(spec.p, move |comm| {
                        let input = local_test_slab(&spec, comm.rank());
                        let slab = FftSession::new(
                            &comm,
                            spec,
                            Variant::New,
                            params,
                            dir,
                            Rigor::Estimate,
                        )
                        .execute(&input)
                        .expect("slab transform");
                        let pencil = PencilSession::new(&comm, spec, grid, params, dir)
                            .and_then(|mut session| session.execute(&input))
                            .expect("pencil transform on the p×1 grid")
                            .output;
                        let case = format!("{spec:?} {dir:?} t={t} w={w} rank {}", comm.rank());
                        assert_eq!(pencil.nzl, spec.nz, "{case}");
                        let slab = bits(&as_yzx(&spec, &slab));
                        assert!(bits(&pencil.data) == slab, "pencil ≠ slab: {case}");
                        let serial = serial_yzx(&spec, comm.rank(), &reference);
                        assert!(slab == bits(&serial), "slab ≠ serial: {case}");
                    });
                }
            }
        }
    }
}
