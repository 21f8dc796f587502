//! Tier-1 acceptance tests for the overlapped 2-D pencil backend:
//! grid-construction invariants over every rank count, serial exactness
//! across swept grid shapes (square, `1×p`, `p×1`, non-divisible extents)
//! and both transform directions, the simulated overlap win at 256 ranks,
//! slab/pencil auto-selection on both sides of the crossover, the typed
//! error contracts of the session constructor (the two pinned regressions
//! of this sweep), stall recovery across the two exchange rounds, and the
//! session properties (bit-identical repeats on reused staging, setups
//! k-then-0, plans freed on drop).

use cfft::{Complex64, Direction, Rigor};
use fft3d::real_env::local_test_slab;
use fft3d::serial::{fft3_serial, full_test_array};
use fft3d::sim_env::Simulation;
use fft3d::{
    auto_select, compare_pencil_with_serial, pencil_blocking, pencil_seed, pencil_test_input,
    Decomposition, Error, FftSession, NoopRecorder, PencilGrid, PencilRunOutput, PencilSession,
    ProblemSpec, Resilience, TuningParams, Variant,
};
use mpisim::{run_with_config, CheckConfig, Comm, FaultPlan, RunConfig};
use proptest::prelude::*;
use simnet::model::umd_cluster;
use std::sync::Arc;
use std::time::Duration;

/// Seed for the fault plans in this file; CI sweeps a matrix of values.
fn fault_seed() -> u64 {
    std::env::var("FFT3D_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7)
}

fn serial_reference(spec: &ProblemSpec, dir: Direction) -> Arc<Vec<Complex64>> {
    let mut reference = full_test_array(spec.nx, spec.ny, spec.nz);
    fft3_serial(&mut reference, spec.nx, spec.ny, spec.nz, dir);
    Arc::new(reference)
}

/// Bit pattern of a spectrum, for exact comparisons (floating-point `==`
/// would hide sign-of-zero/NaN differences).
fn bits(data: &[Complex64]) -> Vec<(u64, u64)> {
    data.iter()
        .map(|c| (c.re.to_bits(), c.im.to_bits()))
        .collect()
}

/// A session executed once and dropped.
fn one_shot(
    comm: &Comm,
    spec: ProblemSpec,
    grid: PencilGrid,
    params: TuningParams,
    dir: Direction,
    input: &[Complex64],
) -> Result<PencilRunOutput, Error> {
    PencilSession::new(comm, spec, grid, params, dir)?.execute(input)
}

/// Small but varied pencil cases: every divisor-pair grid shape of up to
/// eight ranks (including the degenerate `1×p` and `p×1` rows/columns)
/// over extents that do not necessarily divide by the grid.
fn pencil_case() -> impl Strategy<Value = (ProblemSpec, PencilGrid)> {
    (1usize..=8, 2usize..=9, 2usize..=9, 2usize..=9).prop_flat_map(|(p, nx, ny, nz)| {
        (
            Just(ProblemSpec { nx, ny, nz, p }),
            prop::sample::select(PencilGrid::divisor_pairs(p)),
        )
    })
}

proptest! {
    /// The ISSUE's `near_square` contract, pinned over every rank count a
    /// deployment could plausibly use: the factorisation always covers
    /// exactly `p` ranks with `pr ≤ pc`.
    #[test]
    fn near_square_factorises_every_rank_count(p in 1usize..=4096) {
        let g = PencilGrid::near_square(p);
        prop_assert_eq!(g.pr * g.pc, p, "near_square({}) = {}x{}", p, g.pr, g.pc);
        prop_assert!(g.pr <= g.pc, "near_square({}) = {}x{}", p, g.pr, g.pc);
    }

    /// Pencil = serial, bit for bit, at the blocking point and an
    /// overlapped one, across grid shapes and both directions. The two
    /// distributed runs must also agree with *each other* exactly: the
    /// overlap machinery may reorder communication, never arithmetic.
    #[test]
    fn pencil_matches_serial_across_grid_shapes_and_directions(
        (spec, grid) in pencil_case(),
        forward: bool,
    ) {
        let dir = if forward { Direction::Forward } else { Direction::Backward };
        let reference = serial_reference(&spec, dir);
        let params = pencil_seed(&spec, grid);
        let results = mpisim::run(spec.p, move |comm| {
            let input = pencil_test_input(&spec, grid, comm.rank());
            let blocking = one_shot(&comm, spec, grid, pencil_blocking(&spec, grid), dir, &input)
                .unwrap_or_else(|e| panic!("blocking pencil failed: {e}"));
            let overlapped = one_shot(&comm, spec, grid, params, dir, &input)
                .unwrap_or_else(|e| panic!("overlapped pencil failed: {e}"));
            let exact = bits(&overlapped.output.data) == bits(&blocking.output.data);
            let err = compare_pencil_with_serial(
                &spec,
                grid,
                comm.rank(),
                &overlapped.output,
                &reference,
            );
            (exact, err)
        });
        for (rank, (exact, err)) in results.into_iter().enumerate() {
            prop_assert!(
                exact,
                "rank {}: overlapped differs from blocking for {:?} {:?}",
                rank, spec, grid
            );
            prop_assert!(
                err == 0.0,
                "rank {}: error {} vs serial for {:?} {:?} {:?}",
                rank, err, spec, grid, dir
            );
        }
    }
}

/// The acceptance bar of the ISSUE: at 256 ranks on the calibrated
/// cluster model, the tile-windowed pencil exchanges must beat the
/// blocking two-round path in simulated time.
#[test]
fn overlapped_pencil_beats_blocking_at_256_ranks() {
    let spec = ProblemSpec::cube(256, 256);
    let grid = PencilGrid::near_square(256);
    assert_eq!((grid.pr, grid.pc), (16, 16));
    let time = |params: TuningParams| {
        let sim = Simulation::pencil(spec, grid, params).expect("feasible point");
        sim.run(umd_cluster()).expect("clean run")[0].report.time
    };
    let blocking = time(pencil_blocking(&spec, grid));
    let overlapped = time(pencil_seed(&spec, grid));
    assert!(
        overlapped < blocking,
        "overlap {overlapped:.6}s does not beat blocking {blocking:.6}s at 256 ranks"
    );
}

/// `auto_select` picks the faster decomposition on both sides of the
/// crossover: slab where whole-plane slabs exist and win on the cost
/// model, pencil past the `p > min(nx, ny)` scaling wall where slabs
/// cannot even be formed (§6 of the paper's motivation).
#[test]
fn auto_select_picks_each_side_of_the_crossover() {
    // Slab side: 4 ranks over 256³ — each rank holds 64 full planes and
    // the one-round slab exchange is cheaper than two pencil rounds.
    let spec = ProblemSpec::cube(256, 1);
    match auto_select(umd_cluster(), &spec, 4) {
        Ok(Decomposition::Slab) => {}
        other => panic!("expected Slab at 256^3 / 4 ranks, got {other:?}"),
    }
    // Pencil side: 128 ranks over 64³ — past the slab wall (p > nx), only
    // the 2-D grid keeps every rank busy.
    let spec = ProblemSpec::cube(64, 1);
    match auto_select(umd_cluster(), &spec, 128) {
        Ok(Decomposition::Pencil(grid)) => {
            assert_eq!(grid.len(), 128);
            assert!(grid.pr > 1, "past the wall the grid must be 2-D");
        }
        other => panic!("expected Pencil at 64^3 / 128 ranks, got {other:?}"),
    }
}

/// Pinned regression (ISSUE bugfix #1): a grid that disagrees with the
/// communicator is a typed [`Error::GridMismatch`] from the session
/// constructor at both points (blocking and overlapped) — never the old
/// `assert_eq!` panic from inside a collective.
#[test]
fn grid_mismatch_is_a_typed_error_on_both_entry_points() {
    let spec = ProblemSpec::cube(8, 4);
    let results = mpisim::run(4, move |comm| {
        let bad = PencilGrid { pr: 2, pc: 3 };
        let input = vec![Complex64::ZERO; 4];
        let params = pencil_seed(&spec, bad);
        let dir = Direction::Forward;
        let blocking = one_shot(&comm, spec, bad, pencil_blocking(&spec, bad), dir, &input);
        let overlapped = one_shot(&comm, spec, bad, params, dir, &input);
        (blocking.err(), overlapped.err())
    });
    for (rank, (blocking, overlapped)) in results.into_iter().enumerate() {
        for err in [blocking, overlapped] {
            match err {
                Some(Error::GridMismatch {
                    pr: 2,
                    pc: 3,
                    expected: 4,
                }) => {}
                other => panic!("rank {rank}: expected GridMismatch, got {other:?}"),
            }
        }
    }
}

/// Pinned regression (ISSUE bugfix #2): zero ranks is a typed error, not
/// a silently-empty `1×0` grid whose `coords` would divide by zero.
#[test]
fn zero_ranks_is_a_typed_error_not_an_empty_grid() {
    let err = PencilGrid::try_near_square(0).expect_err("p = 0 must be rejected");
    assert!(
        err.to_string().contains("zero ranks"),
        "unexpected error: {err}"
    );
    assert!(auto_select(umd_cluster(), &ProblemSpec::cube(8, 1), 0).is_err());
}

/// A straggler on the pencil path: rank 1 delays every send far past the
/// watchdog, so waits on *both* subcommunicator exchange rounds must trip
/// the degradation ladder and still land a serial-exact spectrum.
#[test]
fn pencil_straggler_stall_recovers_and_matches_serial() {
    let spec = ProblemSpec::cube(12, 4);
    let grid = PencilGrid::near_square(4);
    let mut params = pencil_seed(&spec, grid);
    params.t = 1; // several tiles per stage, so stalls hit mid-window
    let reference = serial_reference(&spec, Direction::Forward);

    let plan = FaultPlan::seeded(fault_seed()).with_straggler(1, 30.0);
    let res = Resilience {
        stall_timeout: Some(Duration::from_millis(15)),
        max_strikes: 8,
    };
    let results = mpisim::run_with_faults(spec.p, plan, move |comm| {
        let input = pencil_test_input(&spec, grid, comm.rank());
        let out = PencilSession::new(&comm, spec, grid, params, Direction::Forward)
            .and_then(|mut session| session.execute_traced(&input, &res, &mut NoopRecorder))
            .unwrap_or_else(|e| panic!("rank {} failed to recover: {e}", comm.rank()));
        let err = compare_pencil_with_serial(&spec, grid, comm.rank(), &out.output, &reference);
        (err, out.recovery)
    });

    let tol = 1e-9 * spec.len() as f64;
    let mut stalls = 0;
    for (rank, (err, recovery)) in results.iter().enumerate() {
        assert!(
            *err < tol,
            "rank {rank}: spectrum error {err} after recovery"
        );
        stalls += recovery.stalls_detected;
    }
    assert!(
        stalls > 0,
        "a 60 ms send delay against a 15 ms watchdog must trip at least once"
    );
}

/// A [`PencilSession`] runs its second and third executions on reused
/// staging and persistent plans: neither may differ by a bit from a
/// one-shot call on fresh memory, a different input in between must leave
/// no trace, and only the first execution sets exchanges up — one per tile
/// of either stage.
#[test]
fn pencil_session_repeats_match_a_fresh_call_with_zero_setup_after_the_first() {
    let divisible = ProblemSpec {
        nx: 12,
        ny: 12,
        nz: 12,
        p: 0,
    };
    let ragged = ProblemSpec {
        nx: 7,
        ny: 9,
        nz: 10,
        p: 0,
    };
    for (shape, grid) in [
        (divisible, PencilGrid { pr: 2, pc: 2 }),
        (divisible, PencilGrid { pr: 1, pc: 3 }),
        (ragged, PencilGrid { pr: 2, pc: 2 }),
        (ragged, PencilGrid { pr: 1, pc: 3 }),
    ] {
        let spec = ProblemSpec {
            p: grid.len(),
            ..shape
        };
        // Several tiles per stage, the last one short on the ragged spec.
        let params = TuningParams {
            t: 2,
            ..pencil_seed(&spec, grid)
        };
        mpisim::run(spec.p, move |comm| {
            let dir = Direction::Forward;
            let input = pencil_test_input(&spec, grid, comm.rank());
            let other: Vec<Complex64> = input
                .iter()
                .rev()
                .map(|c| Complex64::new(c.im - 0.25, 3.0 * c.re))
                .collect();
            let fresh =
                one_shot(&comm, spec, grid, params, dir, &input).expect("one-shot transform");
            let mut session =
                PencilSession::new(&comm, spec, grid, params, dir).expect("session setup");
            let what = format!("rank {} {spec:?} {grid:?}", comm.rank());
            for (exec, data) in [&input, &other, &input, &input].into_iter().enumerate() {
                let out = session.execute(data).expect("session execution");
                if exec == 0 {
                    // The one-shot call posts every tile ad hoc, the
                    // session's first execution inits a plan per tile.
                    assert_eq!(out.exchange_setups, fresh.exchange_setups, "{what}");
                    assert!(out.exchange_setups > 0, "{what}");
                } else {
                    assert_eq!(out.exchange_setups, 0, "{what} execution {exec}");
                }
                if exec != 1 {
                    assert!(
                        bits(&out.output.data) == bits(&fresh.output.data),
                        "{what} execution {exec} differs from a fresh call"
                    );
                }
            }
            assert_eq!(session.free() as u64, fresh.exchange_setups, "{what}");
        });
    }
}

/// A session that falls out of scope without `free()` — an error path, a
/// forgetful caller — still releases every persistent plan: a checked run
/// records no MC006 (`PersistentLeak`), nor anything else, for either
/// session type.
#[test]
fn sessions_dropped_without_free_leak_no_plans() {
    let spec = ProblemSpec::cube(8, 4);
    let grid = PencilGrid::near_square(spec.p);
    let outcome = run_with_config(
        spec.p,
        RunConfig::checked(CheckConfig::default()),
        move |comm| {
            let dir = Direction::Forward;
            let slab = local_test_slab(&spec, comm.rank());
            let params = TuningParams::seed(&spec);
            let mut session =
                FftSession::new(&comm, spec, Variant::New, params, dir, Rigor::Estimate);
            session.execute(&slab).expect("slab execution");

            let pencil = pencil_test_input(&spec, grid, comm.rank());
            let mut session = PencilSession::new(&comm, spec, grid, pencil_seed(&spec, grid), dir)
                .expect("session setup");
            session.execute(&pencil).expect("pencil execution");
        },
    );
    assert!(outcome.results.is_some(), "no deadlock");
    assert!(
        outcome.report.findings.is_empty(),
        "{:?}",
        outcome.report.findings
    );
}
