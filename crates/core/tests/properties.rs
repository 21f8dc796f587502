//! Property-based tests of the core 3-D pipeline: distributed = serial for
//! random shapes and parameters, and structural invariants of the
//! decomposition and parameter machinery.

use cfft::planner::Rigor;
use cfft::Direction;
use fft3d::decomp::AxisSplit;
use fft3d::real_env::{compare_with_serial, local_test_slab};
use fft3d::serial::{fft3_serial, full_test_array, test_field};
use fft3d::{
    Checkpoint, ComputeSource, FftSession, ProblemSpec, ReplicaSource, SlabSource, TuningParams,
    Variant,
};
use proptest::prelude::*;
use std::sync::Arc;

/// Strategy for small but varied problem shapes.
fn small_spec() -> impl Strategy<Value = ProblemSpec> {
    (2usize..=12, 2usize..=12, 2usize..=12, 1usize..=4).prop_map(|(nx, ny, nz, p)| ProblemSpec {
        nx,
        ny,
        nz,
        p,
    })
}

/// Strategy for feasible parameters of a given spec, derived from raw draws.
fn params_for(spec: ProblemSpec) -> impl Strategy<Value = TuningParams> {
    let nxl = spec.nx.div_ceil(spec.p).max(1);
    let nyl = spec.ny.div_ceil(spec.p).max(1);
    (
        1usize..=spec.nz, // t
        1usize..=4,       // w (clamped below)
        1usize..=nxl,     // px
        1usize..=spec.nz, // pz (clamped to t below)
        1usize..=nyl,     // uy
        1usize..=spec.nz, // uz
        0u32..6,
        0u32..6,
        0u32..6,
        (0u32..6, 1usize..=3), // (fx, threads) — exercise parallel kernels too
    )
        .prop_map(move |(t, w, px, pz, uy, uz, fy, fp, fu, (fx, threads))| {
            let tiles = spec.nz.div_ceil(t);
            TuningParams {
                t,
                w: w.min(tiles),
                px,
                pz: pz.min(t),
                uy,
                uz: uz.min(t),
                fy,
                fp,
                fu,
                fx,
                threads,
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The headline correctness property: for random shapes, process
    /// counts, and (feasible) parameter draws, the distributed overlapped
    /// transform equals the serial reference.
    #[test]
    fn distributed_equals_serial(
        (spec, params) in small_spec().prop_flat_map(|s| params_for(s).prop_map(move |p| (s, p)))
    ) {
        let mut reference = full_test_array(spec.nx, spec.ny, spec.nz);
        fft3_serial(&mut reference, spec.nx, spec.ny, spec.nz, Direction::Forward);
        let reference = Arc::new(reference);
        let errs = mpisim::run(spec.p, move |comm| {
            let input = local_test_slab(&spec, comm.rank());
            let out = FftSession::new(&comm, spec, Variant::New, params, Direction::Forward, Rigor::Estimate).execute(&input).expect("clean run");
            compare_with_serial(&spec, comm.rank(), &out, &reference)
        });
        let tol = 1e-9 * spec.len() as f64;
        for e in errs {
            prop_assert!(e < tol, "err {} for {:?} {:?}", e, spec, params);
        }
    }

    /// Axis splits partition the axis exactly with monotone offsets, for
    /// any (n, p).
    #[test]
    fn axis_split_partitions(n in 0usize..500, p in 1usize..40) {
        let s = AxisSplit::new(n, p);
        prop_assert_eq!(s.counts().iter().sum::<usize>(), n);
        let mut off = 0;
        for r in 0..p {
            prop_assert_eq!(s.offset(r), off);
            off += s.count(r);
            // Counts differ by at most one and are non-increasing.
            if r > 0 {
                prop_assert!(s.count(r) <= s.count(r - 1));
                prop_assert!(s.count(r - 1) - s.count(r) <= 1);
            }
        }
    }

    /// `owner` inverts `offset`/`count` for every plane.
    #[test]
    fn owner_is_inverse(n in 1usize..300, p in 1usize..20) {
        let s = AxisSplit::new(n, p);
        for i in (0..n).step_by((n / 17).max(1)) {
            let r = s.owner(i);
            prop_assert!(i >= s.offset(r));
            prop_assert!(i < s.offset(r) + s.count(r));
        }
    }

    /// The §4.4 seed is feasible for any spec with nonzero extents.
    #[test]
    fn seed_is_always_feasible(spec in small_spec()) {
        let seed = TuningParams::seed(&spec);
        prop_assert!(seed.is_feasible(&spec), "{:?} for {:?}", seed, spec);
    }

    /// Validation accepts exactly the §4.4 constraint set: perturbing any
    /// parameter beyond its bound flips feasibility.
    #[test]
    fn validation_rejects_out_of_range(spec in small_spec()) {
        let seed = TuningParams::seed(&spec);
        let nxl = spec.nx.div_ceil(spec.p);
        let nyl = spec.ny.div_ceil(spec.p);
        // prop_assert! stringifies its expression into a format string, so
        // struct literals with braces must live in bindings.
        let bad_t = TuningParams { t: spec.nz + 1, ..seed };
        let bad_px = TuningParams { px: nxl + 1, ..seed };
        let bad_uy = TuningParams { uy: nyl + 1, ..seed };
        let bad_pz = TuningParams { pz: seed.t + 1, ..seed };
        let bad_uz = TuningParams { uz: seed.t + 1, ..seed };
        let bad_w = TuningParams { w: 0, ..seed };
        prop_assert!(!bad_t.is_feasible(&spec));
        prop_assert!(!bad_px.is_feasible(&spec));
        prop_assert!(!bad_uy.is_feasible(&spec));
        prop_assert!(!bad_pz.is_feasible(&spec));
        prop_assert!(!bad_uz.is_feasible(&spec));
        prop_assert!(!bad_w.is_feasible(&spec));
    }

    /// Three-source slab equivalence, the pure half: the replica-cut and
    /// generator-built slabs agree for every rank of every decomposition —
    /// including ranks outside it, where both must refuse.
    #[test]
    fn replica_and_compute_sources_agree_everywhere(spec in small_spec()) {
        let full = Arc::new(full_test_array(spec.nx, spec.ny, spec.nz));
        let replica = ReplicaSource::new(full);
        let compute = ComputeSource::new(test_field);
        for p in 1..=spec.p {
            let s = ProblemSpec { p, ..spec };
            for rank in 0..p + 1 {
                prop_assert_eq!(replica.slab(&s, rank), compute.slab(&s, rank),
                    "p={} rank={}", p, rank);
            }
        }
    }

    /// XOR-parity checkpoints reconstruct *any* single lost rank's data
    /// bit-exactly: for every possible loss, every survivor's slab of the
    /// shrunk decomposition matches the replica cut bit for bit.
    #[test]
    fn parity_reconstruction_is_bit_exact_after_any_single_loss(
        spec in (1usize..=8, 1usize..=5, 1usize..=5, 2usize..=4)
            .prop_map(|(nx, ny, nz, p)| ProblemSpec { nx, ny, nz, p })
    ) {
        let full = Arc::new(full_test_array(spec.nx, spec.ny, spec.nz));
        let fullc = Arc::clone(&full);
        mpisim::run(spec.p, move |comm| {
            let me = comm.rank();
            let own = local_test_slab(&spec, me);
            let src = Checkpoint::capture(&comm, &spec, &own).into_source();
            let replica = ReplicaSource::new(Arc::clone(&fullc));
            for lost in 0..spec.p {
                let color = if me == lost { -1 } else { 0 };
                let Some(sub) = comm.split(color, me as i64) else { continue };
                let mut spec2 = spec;
                spec2.p = sub.size();
                src.prepare(&sub, &spec2, &[lost]);
                for r in 0..spec2.p {
                    let got = src.slab(&spec2, r).expect("rebuilt slab");
                    let want = replica.slab(&spec2, r).expect("replica slab");
                    let same = got.len() == want.len()
                        && got.iter().zip(&want).all(|(a, b)| {
                            a.re.to_bits() == b.re.to_bits()
                                && a.im.to_bits() == b.im.to_bits()
                        });
                    assert!(same, "lost={lost} rank={r} differs");
                }
            }
        });
    }

    /// Tile count times tile size covers Nz with only the last tile short.
    #[test]
    fn tiles_cover_nz(spec in small_spec(), t in 1usize..16) {
        let t = t.min(spec.nz);
        let params = TuningParams { t, pz: 1, uz: 1, w: 1, ..TuningParams::seed(&spec) };
        let k = params.tiles(&spec);
        prop_assert!(k * t >= spec.nz);
        prop_assert!((k - 1) * t < spec.nz);
    }
}
