//! One lifecycle under every real transform: a one-shot call is a session
//! executed once.
//!
//! * A one-shot call and the first execution of a fresh session are the
//!   same run — bitwise-equal data, the same exchange setups (one per
//!   tile) — and a session's second execution sets up nothing.
//! * However a transform ends — a one-shot call returning, a session
//!   dropped without `free`, an error return with exchanges in flight, a
//!   rejected configuration — every persistent plan is freed (no MC006
//!   finding in a checked run) and nothing stays in a mailbox.
//! * A rank killed at a tile boundary unwinds through the session's `Drop`
//!   (a second panic there would abort the process) and the survivors
//!   recover serial-exact.
//! * A wrong-length input is a typed error that leaves the session usable.

use cfft::planner::Rigor;
use cfft::{Complex64, Direction};
use fft3d::decomp::AxisSplit;
use fft3d::real_env::{compare_with_serial, local_test_slab};
use fft3d::serial::{fft3_serial, full_test_array};
use fft3d::{
    pencil_seed, pencil_test_input, run_recoverable, try_fft3_dist, try_fft3_dist_traced, Error,
    FftSession, NoopRecorder, PencilGrid, PencilSession, ProblemSpec, RecoverConfig, ReplicaSource,
    Resilience, TuningParams, Variant,
};
use mpisim::{run_with_config, Backoff, CheckConfig, CheckOutcome, FaultPlan, RunConfig};
use std::sync::Arc;
use std::time::Duration;

const FORWARD: Direction = Direction::Forward;

fn bits(data: &[Complex64]) -> Vec<(u64, u64)> {
    data.iter()
        .map(|c| (c.re.to_bits(), c.im.to_bits()))
        .collect()
}

#[test]
fn a_one_shot_slab_call_is_the_first_execution_of_a_session() {
    let ragged = ProblemSpec {
        nx: 10,
        ny: 9,
        nz: 8,
        p: 3,
    };
    for spec in [ProblemSpec::cube(8, 2), ragged] {
        let params = TuningParams {
            t: 3,
            ..TuningParams::seed(&spec)
        };
        // NEW and TH tile z by `t`; FFTW runs the whole slab as one tile.
        let tiled = spec.nz.div_ceil(params.t) as u64;
        for (variant, tiles) in [
            (Variant::New, tiled),
            (Variant::Th, tiled),
            (Variant::Fftw, 1),
        ] {
            mpisim::run(spec.p, move |comm| {
                let input = local_test_slab(&spec, comm.rank());
                let rigor = Rigor::Estimate;
                let once = try_fft3_dist(&comm, spec, variant, params, FORWARD, rigor, &input)
                    .expect("one-shot call");
                let mut session = FftSession::new(&comm, spec, variant, params, FORWARD, rigor);
                let first = session.execute(&input).expect("first execution");
                let second = session.execute(&input).expect("second execution");
                let what = format!("{spec:?} {variant:?} rank {}", comm.rank());
                assert_eq!(once.layout, first.layout, "{what}");
                assert!(
                    bits(&once.data) == bits(&first.data),
                    "{what}: data differs"
                );
                assert!(
                    bits(&once.data) == bits(&second.data),
                    "{what}: data differs"
                );
                assert_eq!(once.exchange_setups, tiles, "{what}");
                assert_eq!(first.exchange_setups, tiles, "{what}");
                assert_eq!(second.exchange_setups, 0, "{what}");
                assert_eq!(session.live_plans() as u64, tiles, "{what}");
            });
        }
    }
}

#[test]
fn a_one_shot_pencil_call_is_the_first_execution_of_a_session() {
    let ragged = ProblemSpec {
        nx: 7,
        ny: 9,
        nz: 10,
        p: 6,
    };
    for (spec, grid) in [
        (ProblemSpec::cube(8, 4), PencilGrid { pr: 2, pc: 2 }),
        (ragged, PencilGrid { pr: 3, pc: 2 }),
    ] {
        let params = TuningParams {
            t: 2,
            ..pencil_seed(&spec, grid)
        };
        mpisim::run(spec.p, move |comm| {
            let input = pencil_test_input(&spec, grid, comm.rank());
            // The row stage tiles this rank's x, the column stage its z.
            let (row, col) = grid.coords(comm.rank());
            let nxl = AxisSplit::new(spec.nx, grid.pr).count(row);
            let nzl = AxisSplit::new(spec.nz, grid.pc).count(col);
            let tiles = (nxl.div_ceil(params.t) + nzl.div_ceil(params.t)) as u64;
            let once = PencilSession::new(&comm, spec, grid, params, FORWARD)
                .and_then(|mut session| session.execute(&input))
                .expect("one-shot call");
            let mut session =
                PencilSession::new(&comm, spec, grid, params, FORWARD).expect("session setup");
            let first = session.execute(&input).expect("first execution");
            let second = session.execute(&input).expect("second execution");
            let what = format!("{grid:?} rank {}", comm.rank());
            for (run, setups) in [(&once, tiles), (&first, tiles), (&second, 0)] {
                assert!(
                    bits(&run.output.data) == bits(&once.output.data),
                    "{what}: data differs"
                );
                assert_eq!(run.exchange_setups, setups, "{what}");
            }
            assert_eq!(session.free() as u64, tiles, "{what}");
        });
    }
}

/// Asserts a checked run ended with no leaked plan and empty mailboxes
/// (each rank returns its `pending_messages()` after a closing barrier).
fn assert_nothing_leaked(outcome: CheckOutcome<usize>, what: &str) {
    let leaks: Vec<_> = outcome
        .report
        .findings
        .iter()
        .filter(|f| f.id.code() == "MC006")
        .collect();
    assert!(leaks.is_empty(), "{what}: {leaks:?}");
    let pending = outcome
        .results
        .unwrap_or_else(|| panic!("{what}: the world deadlocked"));
    assert!(
        pending.iter().all(|&p| p == 0),
        "{what}: staged messages left {pending:?}"
    );
}

#[test]
fn every_way_a_transform_ends_frees_its_plans_and_drains_its_mailbox() {
    let spec = ProblemSpec::cube(8, 4);
    let grid = PencilGrid { pr: 2, pc: 2 };
    let params = TuningParams::seed(&spec);
    let checked = RunConfig::checked(CheckConfig::default());
    let outcome = run_with_config(spec.p, checked, move |comm| {
        // One-shot calls: their sessions drop on return.
        let slab = local_test_slab(&spec, comm.rank());
        try_fft3_dist(
            &comm,
            spec,
            Variant::New,
            params,
            FORWARD,
            Rigor::Estimate,
            &slab,
        )
        .expect("one-shot slab call");
        let pencil = pencil_test_input(&spec, grid, comm.rank());
        let pencil_params = pencil_seed(&spec, grid);
        PencilSession::new(&comm, spec, grid, pencil_params, FORWARD)
            .and_then(|mut session| session.execute(&pencil))
            .expect("one-shot pencil call");
        // A session dropped without `free`, plans live.
        let mut session =
            FftSession::new(&comm, spec, Variant::New, params, FORWARD, Rigor::Estimate);
        session.execute(&slab).expect("session execution");
        assert!(session.live_plans() > 0);
        drop(session);
        // A rejected configuration: every execution returns the error.
        let infeasible = TuningParams { px: 0, ..params };
        let mut refused = FftSession::new(
            &comm,
            spec,
            Variant::New,
            infeasible,
            FORWARD,
            Rigor::Estimate,
        );
        for _ in 0..2 {
            let err = refused
                .execute(&slab)
                .map(|_| ())
                .expect_err("px = 0 is infeasible");
            assert!(matches!(err, Error::InfeasibleParams(_)), "{err}");
        }
        assert_eq!((refused.executions(), refused.live_plans()), (2, 0));
        drop(refused);
        comm.barrier();
        comm.pending_messages()
    });
    assert_nothing_leaked(outcome, "clean endings");

    // A one-shot call that fails with exchanges in flight: rank 1's sends
    // vanish, so every rank's wait stalls past the strike budget.
    let stalled = RunConfig {
        faults: FaultPlan::seeded(7).with_blackhole(1, 0),
        backoff: Backoff::checked(),
        check: Some(CheckConfig::default()),
    };
    let res = Resilience {
        stall_timeout: Some(Duration::from_millis(100)),
        max_strikes: 2,
    };
    let outcome = run_with_config(spec.p, stalled, move |comm| {
        let slab = local_test_slab(&spec, comm.rank());
        let (variant, rigor) = (Variant::New, Rigor::Estimate);
        let mut rec = NoopRecorder;
        let err = try_fft3_dist_traced(
            &comm, spec, variant, params, FORWARD, rigor, &slab, &res, &mut rec,
        )
        .map(|_| ())
        .expect_err("a blackholed peer cannot produce a spectrum");
        assert!(matches!(err, Error::Stalled { .. }), "{err}");
        comm.barrier();
        comm.pending_messages()
    });
    assert_nothing_leaked(outcome, "stalled one-shot call");
}

/// Pinned regression (ISSUE 23): a communicator that is not `spec.p` ranks
/// wide refuses the session on both decompositions — the same typed
/// [`Error::GridMismatch`] on every rank, from every execution, with no plan
/// set up and nothing posted. `FftSession::new` used to `assert_eq!`.
#[test]
fn a_communicator_of_the_wrong_size_refuses_the_session_on_both_decompositions() {
    let spec = ProblemSpec::cube(8, 6); // six ranks wanted, four given
    let grid = PencilGrid { pr: 2, pc: 3 };
    let checked = RunConfig::checked(CheckConfig::default());
    let outcome = run_with_config(4, checked, move |comm| {
        let input = [Complex64::ZERO; 4]; // a refused session never reads it
        let params = TuningParams::seed(&spec);
        // Checkpointing must not run its exchange on the wrong communicator.
        let mut slab = FftSession::new(&comm, spec, Variant::New, params, FORWARD, Rigor::Estimate)
            .checkpoint_every(1);
        for _ in 0..2 {
            let err = slab.execute(&input).map(|_| ()).expect_err("4 ranks ≠ 6");
            let (pr, pc, expected) = (4, 1, 6);
            assert_eq!(err, Error::GridMismatch { pr, pc, expected });
        }
        assert_eq!((slab.executions(), slab.live_plans()), (2, 0));
        assert!(slab.checkpoint().is_none());
        let pencil = PencilSession::new(&comm, spec, grid, pencil_seed(&spec, grid), FORWARD);
        let (pr, pc, expected) = (2, 3, 4);
        assert_eq!(pencil.err(), Some(Error::GridMismatch { pr, pc, expected }));
        comm.barrier();
        comm.pending_messages()
    });
    assert_nothing_leaked(outcome, "refused sessions");
}

/// A wrong-length input is a typed error, not a panic in the rank thread:
/// on both decompositions a short and a long input each return
/// [`Error::InputLength`], count as attempts and capture no checkpoint, and
/// the next correctly sized execution of the same session is a fresh
/// session's spectrum.
#[test]
fn a_wrong_length_input_is_a_typed_error_and_the_session_stays_usable() {
    let spec = ProblemSpec::cube(8, 4);
    let grid = PencilGrid { pr: 2, pc: 2 };
    let wrong = |input: &[Complex64]| {
        let (short, long) = (input[1..].to_vec(), [input, &[Complex64::ZERO]].concat());
        let expected = input.len();
        [short, long].map(|bad| {
            (
                Error::InputLength {
                    expected,
                    got: bad.len(),
                },
                bad,
            )
        })
    };
    mpisim::run(spec.p, move |comm| {
        let input = local_test_slab(&spec, comm.rank());
        let params = TuningParams::seed(&spec);
        let slab = || FftSession::new(&comm, spec, Variant::New, params, FORWARD, Rigor::Estimate);
        let fresh = slab().execute(&input).expect("a fresh slab session");
        let mut session = slab().checkpoint_every(1);
        for (err, bad) in wrong(&input) {
            assert_eq!(session.execute(&bad).map(|_| ()), Err(err));
        }
        assert!(session.checkpoint().is_none());
        let again = session.execute(&input).expect("a correctly sized input");
        assert_eq!(session.checkpoint().map(|c| c.generation()), Some(3));
        assert!(
            bits(&again.data) == bits(&fresh.data),
            "slab rank {}",
            comm.rank()
        );
        assert_eq!(session.executions(), 3);

        let input = pencil_test_input(&spec, grid, comm.rank());
        let params = pencil_seed(&spec, grid);
        let pencil = || PencilSession::new(&comm, spec, grid, params, FORWARD).expect("pins");
        let fresh = pencil().execute(&input).expect("a fresh pencil session");
        let mut session = pencil();
        for (err, bad) in wrong(&input) {
            assert_eq!(session.execute(&bad).map(|_| ()), Err(err));
        }
        let again = session.execute(&input).expect("a correctly sized input");
        let what = format!("pencil rank {}", comm.rank());
        assert!(
            bits(&again.output.data) == bits(&fresh.output.data),
            "{what}"
        );
        assert_eq!(session.executions(), 3);
    });
}

#[test]
fn a_killed_rank_unwinds_through_the_session_drop_and_survivors_recover() {
    let spec = ProblemSpec::cube(12, 4);
    let params = TuningParams::seed(&spec);
    let tiles = params.tiles(&spec);
    assert!(
        params.w >= 1 && tiles > 2,
        "the victim dies with a tile in flight"
    );
    let victim = 1;
    let full = Arc::new(full_test_array(spec.nx, spec.ny, spec.nz));
    let mut reference = (*full).clone();
    fft3_serial(&mut reference, spec.nx, spec.ny, spec.nz, FORWARD);
    let reference = Arc::new(reference);

    // Checked, so a plan the dying rank's unwind failed to free would be an
    // MC006 finding; a panic inside that unwind would abort the test process.
    let crash = RunConfig {
        faults: FaultPlan::seeded(7).with_rank_crash(victim, tiles / 2),
        backoff: Backoff::checked(),
        check: Some(CheckConfig::default()),
    };
    let outcome = run_with_config(spec.p, crash, move |comm| {
        let source = ReplicaSource::new(Arc::clone(&full));
        let outcome = run_recoverable(
            &comm,
            spec,
            Variant::New,
            params,
            FORWARD,
            &source,
            &RecoverConfig::default(),
            &mut NoopRecorder,
        )
        .unwrap_or_else(|e| panic!("world rank {} failed to recover: {e}", comm.rank()));
        assert_eq!(outcome.lost, vec![victim]);
        compare_with_serial(&outcome.spec, outcome.rank, &outcome.output, &reference)
    });
    assert_eq!(outcome.crashed, vec![victim]);
    let leaks: Vec<_> = outcome
        .report
        .findings
        .iter()
        .filter(|f| f.id.code() == "MC006")
        .collect();
    assert!(leaks.is_empty(), "{leaks:?}");
    let errs = outcome.results.expect("the survivors return");
    assert_eq!(errs.len(), spec.p - 1);
    for err in errs {
        assert!(err < 1e-9 * spec.len() as f64, "spectrum error {err}");
    }
}
