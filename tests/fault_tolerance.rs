//! Deterministic fault-injection scenarios across both backends, driven by
//! a seeded [`FaultPlan`] (override the seed with `FFT3D_FAULT_SEED`).
//!
//! These are the acceptance tests for the degradation ladder:
//! * a straggler-induced stall is detected by the watchdog and recovered —
//!   the spectrum still matches the serial reference;
//! * transiently dropped round sends are retransmitted to completion;
//! * a hard stall (blackholed rank) surfaces as [`Error::Stalled`] on every
//!   rank within the watchdog budget instead of hanging, and the cancelled
//!   collectives leak no staged messages;
//! * infeasible parameters come back as typed errors from the `try_` entry
//!   points on both backends;
//! * the simulated backend's fault presets slow the modeled run monotonically.

use cfft::planner::Rigor;
use cfft::{Complex64, Direction};
use fft3d::real_env::{compare_with_serial, local_test_slab};
use fft3d::serial::{fft3_serial, full_test_array};
use fft3d::sim_env::{fft3_simulated, Simulation};
use fft3d::{
    run_recoverable, Error, EventKind, FftSession, MemRecorder, NoopRecorder, ProblemSpec,
    RecoverConfig, ReplicaSource, Resilience, SlabSource, TuningParams, Variant,
};
use mpisim::FaultPlan;
use simnet::model::umd_cluster;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Seed for every fault plan in this file; CI sweeps a small matrix of
/// values to shake out draw-dependent assumptions.
fn fault_seed() -> u64 {
    std::env::var("FFT3D_FAULT_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7)
}

fn serial_reference(spec: &ProblemSpec) -> Arc<Vec<cfft::Complex64>> {
    let mut reference = full_test_array(spec.nx, spec.ny, spec.nz);
    fft3_serial(
        &mut reference,
        spec.nx,
        spec.ny,
        spec.nz,
        Direction::Forward,
    );
    Arc::new(reference)
}

#[test]
fn straggler_stall_recovers_and_matches_serial() {
    let spec = ProblemSpec::cube(12, 4);
    let params = TuningParams::seed(&spec);
    let reference = serial_reference(&spec);

    // Rank 1 delays every round send by 60 ms — far past the 15 ms
    // watchdog, so peers' waits must trip, climb the ladder, and recover.
    let plan = FaultPlan::seeded(fault_seed()).with_straggler(1, 30.0);
    let res = Resilience {
        stall_timeout: Some(Duration::from_millis(15)),
        max_strikes: 8,
    };
    let results = mpisim::run_with_faults(spec.p, plan, move |comm| {
        let input = local_test_slab(&spec, comm.rank());
        let out = FftSession::new(
            &comm,
            spec,
            Variant::New,
            params,
            Direction::Forward,
            Rigor::Estimate,
        )
        .execute_traced(&input, &res, &mut NoopRecorder)
        .unwrap_or_else(|e| panic!("rank {} failed to recover: {e}", comm.rank()));
        let err = compare_with_serial(&spec, comm.rank(), &out, &reference);
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

#[test]
fn transient_drops_retransmit_and_match_serial() {
    let spec = ProblemSpec::cube(12, 4);
    let params = TuningParams::seed(&spec);
    let reference = serial_reference(&spec);

    // A quarter of round sends drop (bounded retransmit, transient): the
    // collective must retransmit its way to an exact spectrum.
    let plan = FaultPlan::seeded(fault_seed()).with_drops(0.25, 8);
    let res = Resilience::with_timeout(Duration::from_millis(500));
    let results = mpisim::run_with_faults(spec.p, plan, move |comm| {
        let input = local_test_slab(&spec, comm.rank());
        let out = FftSession::new(
            &comm,
            spec,
            Variant::New,
            params,
            Direction::Forward,
            Rigor::Estimate,
        )
        .execute_traced(&input, &res, &mut NoopRecorder)
        .unwrap_or_else(|e| panic!("rank {} failed: {e}", comm.rank()));
        compare_with_serial(&spec, comm.rank(), &out, &reference)
    });

    let tol = 1e-9 * spec.len() as f64;
    for (rank, err) in results.iter().enumerate() {
        assert!(*err < tol, "rank {rank}: spectrum error {err}");
    }
}

#[test]
fn blackholed_rank_surfaces_stalled_not_a_hang() {
    let spec = ProblemSpec::cube(12, 4);
    let params = TuningParams::seed(&spec);

    // Rank 1's sends vanish from round 1 on. Under manual progression the
    // starvation cascades — a rank stuck on its missing round withholds its
    // own later-round sends — so EVERY rank must surface a typed error
    // (Stalled at its immediate missing peer), bounded by the strike
    // budget, with all in-flight collectives cancelled.
    let plan = FaultPlan::seeded(fault_seed()).with_blackhole(1, 0);
    let res = Resilience {
        stall_timeout: Some(Duration::from_millis(100)),
        max_strikes: 2,
    };
    let started = Instant::now();
    let results = mpisim::run_with_faults(spec.p, plan, move |comm| {
        let input = local_test_slab(&spec, comm.rank());
        let err = FftSession::new(
            &comm,
            spec,
            Variant::New,
            params,
            Direction::Forward,
            Rigor::Estimate,
        )
        .execute_traced(&input, &res, &mut NoopRecorder)
        .map(|_| ())
        .expect_err("a blackholed peer cannot produce a complete spectrum");
        // Once every rank has erred (and cancelled), the world must hold no
        // staged round blocks — the drop-mid-flight leak regression.
        comm.barrier();
        (err, comm.pending_messages())
    });
    let elapsed = started.elapsed();

    for (rank, (err, pending)) in results.iter().enumerate() {
        assert!(
            matches!(err, Error::Stalled { .. }),
            "rank {rank}: expected Stalled, got {err}"
        );
        assert_eq!(*pending, 0, "rank {rank}: staged messages leaked");
    }
    // Watchdog bound: each wait burns at most (strikes + 1) watchdog
    // periods plus park slack; well under this generous ceiling. A hang
    // would blow straight past it.
    assert!(
        elapsed < Duration::from_secs(20),
        "stall detection took {elapsed:?}"
    );
}

#[test]
fn fatal_drops_surface_typed_errors_on_every_rank() {
    let spec = ProblemSpec::cube(12, 4);
    let params = TuningParams::seed(&spec);

    // Heavy fatal drops: a rank whose own send dies past the retransmit
    // budget reports Dropped; a rank starved by a dead peer reports
    // Stalled. Nobody hangs, nobody panics.
    let plan = FaultPlan::seeded(fault_seed()).with_fatal_drops(0.9, 1);
    let res = Resilience {
        stall_timeout: Some(Duration::from_millis(150)),
        max_strikes: 2,
    };
    let results = mpisim::run_with_faults(spec.p, plan, move |comm| {
        let input = local_test_slab(&spec, comm.rank());
        FftSession::new(
            &comm,
            spec,
            Variant::New,
            params,
            Direction::Forward,
            Rigor::Estimate,
        )
        .execute_traced(&input, &res, &mut NoopRecorder)
        .map(|_| ())
        .expect_err("0.9 fatal drop probability cannot complete")
    });

    for (rank, err) in results.iter().enumerate() {
        assert!(
            matches!(err, Error::Dropped { .. } | Error::Stalled { .. }),
            "rank {rank}: unexpected error {err}"
        );
    }
    assert!(
        results.iter().any(|e| matches!(e, Error::Dropped { .. })),
        "at least one rank's own send must exhaust the retransmit budget: {results:?}"
    );
}

#[test]
fn infeasible_parameters_surface_typed_errors_on_both_backends() {
    // Real backend: NEW's feasibility rules, and the tile-size rule TH (and
    // FFTW) share with the model — one `Variant::check` for both backends.
    let spec = ProblemSpec::cube(8, 2);
    let seed = TuningParams::seed(&spec);
    let mut no_px = seed.without_overlap();
    no_px.px = 0;
    for (variant, params) in [
        (Variant::New, no_px),
        (Variant::Th, TuningParams { t: 0, ..seed }),
    ] {
        let errs = mpisim::run(spec.p, move |comm| {
            let input = local_test_slab(&spec, comm.rank());
            FftSession::new(
                &comm,
                spec,
                variant,
                params,
                Direction::Forward,
                Rigor::Estimate,
            )
            .execute(&input)
            .map(|_| ())
            .unwrap_err()
        });
        let modelled = Simulation::slab(spec, variant, params)
            .map(|_| ())
            .unwrap_err();
        for err in errs {
            assert!(matches!(err, Error::InfeasibleParams(_)), "{err}");
            assert_eq!(err, modelled, "{variant:?}");
        }
    }

    // Simulated backend.
    let spec = ProblemSpec::cube(64, 8);
    let mut params = TuningParams::seed(&spec);
    params.w = spec.nz; // window larger than the tile count
    let err = Simulation::slab(spec, Variant::New, params)
        .map(|_| ())
        .unwrap_err();
    assert!(matches!(err, Error::InfeasibleParams(_)), "{err}");
}

#[test]
fn simulated_fault_presets_slow_the_modeled_run() {
    let spec = ProblemSpec::cube(128, 8);
    let params = TuningParams::seed(&spec);
    let clean = fft3_simulated(umd_cluster(), spec, Variant::New, params, false).time;

    let mild = fft3_simulated(
        umd_cluster().with_straggler(3, 1.0),
        spec,
        Variant::New,
        params,
        false,
    )
    .time;
    let severe = fft3_simulated(
        umd_cluster().with_straggler(3, 4.0),
        spec,
        Variant::New,
        params,
        false,
    )
    .time;
    assert!(mild > clean, "straggler must cost time: {mild} vs {clean}");
    assert!(
        severe > mild,
        "severity must be monotone: {severe} vs {mild}"
    );

    let degraded = fft3_simulated(
        umd_cluster().with_degraded_links(2.0),
        spec,
        Variant::New,
        params,
        false,
    )
    .time;
    assert!(
        degraded > clean,
        "halved link bandwidth must cost time: {degraded} vs {clean}"
    );
}

#[test]
fn crash_surfaces_rank_failed_naming_the_dead_rank() {
    let spec = ProblemSpec::cube(12, 4);
    let params = TuningParams::seed(&spec);

    // World rank 2 dies at the first tile boundary. Every survivor's
    // exchange needs the dead rank's blocks, so each must surface
    // RankFailed naming rank 2 — not Stalled, not a hang.
    let plan = FaultPlan::seeded(fault_seed()).with_rank_crash(2, 0);
    let res = Resilience::with_timeout(Duration::from_millis(100));
    let out = mpisim::run_crashable(spec.p, plan, move |comm| {
        let input = local_test_slab(&spec, comm.rank());
        FftSession::new(
            &comm,
            spec,
            Variant::New,
            params,
            Direction::Forward,
            Rigor::Estimate,
        )
        .execute_traced(&input, &res, &mut NoopRecorder)
        .map(|_| ())
        .expect_err("a dead peer cannot produce a complete spectrum")
    });

    assert!(out[2].is_none(), "the dead rank must not return");
    for (rank, err) in out.iter().enumerate() {
        if rank == 2 {
            continue;
        }
        match err.expect("survivors return a typed error") {
            Error::RankFailed { rank: dead, .. } => {
                assert_eq!(dead, 2, "rank {rank} must name the dead rank")
            }
            other => panic!("rank {rank}: expected RankFailed, got {other}"),
        }
    }
}

#[test]
fn cancel_is_safe_after_a_rank_failure() {
    // Regression for the post-abort/post-failure cancel race: cancelling a
    // collective whose member died mid-exchange must purge this rank's
    // staged rounds safely (and skip the purge entirely once the world is
    // aborted) instead of racing mailbox teardown. Sticky error semantics:
    // re-testing the failed request keeps returning the same typed error.
    let plan = FaultPlan::seeded(fault_seed()).with_rank_crash(0, 0);
    let out = mpisim::run_crashable(3, plan, move |comm| {
        if comm.rank() == 0 {
            comm.crash_point(0);
        }
        let send: Vec<i64> = vec![comm.rank() as i64; comm.size()];
        let mut req = comm.ialltoall(&send, 1, vec![0i64; comm.size()]);
        let err = req
            .wait_timeout(&comm, Duration::from_secs(5))
            .expect_err("a collective over a dead member cannot complete");
        assert!(
            matches!(err, mpisim::CollError::RankFailed(0)),
            "expected RankFailed(0), got {err}"
        );
        // The failure is sticky: polling again is safe and repeats it.
        let again = req.try_test(&comm).expect_err("failure must be sticky");
        assert_eq!(err, again);
        req.cancel(&comm);
        true
    });
    assert!(out[0].is_none());
    assert_eq!(out[1], Some(true));
    assert_eq!(out[2], Some(true));
}

#[test]
fn session_repeats_stay_exact_with_a_straggler_between_executions() {
    // Persistent plans must not bake timing assumptions into the schedule:
    // the same session executes three times while rank 1 delays every round
    // send past the watchdog, so stalls trip *between and during* reuses of
    // the same plans. Every execution must still match the serial reference.
    let spec = ProblemSpec::cube(12, 4);
    let params = TuningParams::seed(&spec);
    let reference = serial_reference(&spec);

    let plan = FaultPlan::seeded(fault_seed()).with_straggler(1, 30.0);
    let res = Resilience {
        stall_timeout: Some(Duration::from_millis(15)),
        max_strikes: 8,
    };
    let results = mpisim::run_with_faults(spec.p, plan, move |comm| {
        let input = local_test_slab(&spec, comm.rank());
        let mut session = FftSession::new(
            &comm,
            spec,
            Variant::New,
            params,
            Direction::Forward,
            Rigor::Estimate,
        );
        let mut errs = Vec::new();
        let mut stalls = 0u32;
        for exec in 0..3 {
            let out = session
                .execute_traced(&input, &res, &mut NoopRecorder)
                .unwrap_or_else(|e| {
                    panic!("rank {} exec {exec} failed to recover: {e}", comm.rank())
                });
            errs.push(compare_with_serial(&spec, comm.rank(), &out, &reference));
            stalls += out.recovery.stalls_detected;
        }
        session.free();
        (errs, stalls)
    });

    let tol = 1e-9 * spec.len() as f64;
    let mut stalls = 0;
    for (rank, (errs, s)) in results.iter().enumerate() {
        for (exec, err) in errs.iter().enumerate() {
            assert!(*err < tol, "rank {rank} exec {exec}: spectrum error {err}");
        }
        stalls += s;
    }
    assert!(
        stalls > 0,
        "a 60 ms send delay against a 15 ms watchdog must trip at least once"
    );
}

#[test]
fn persistent_plan_surfaces_rank_failed_and_outlives_a_shrink() {
    // ULFM discipline for persistent collectives: an execution over a dead
    // member surfaces RankFailed naming the *world* rank; the plan can then
    // be freed (purging the failed execution), the communicator shrunk, and
    // a fresh plan on the survivor communicator runs to completion —
    // setup-once/execute-many across the recovery boundary.
    let plan = FaultPlan::seeded(fault_seed()).with_rank_crash(2, 0);
    let out = mpisim::run_crashable(4, plan, move |comm| {
        if comm.rank() == 2 {
            comm.crash_point(0);
        }
        let me = comm.rank() as i64;
        let mut plan = comm.alltoall_init(1, Vec::new());
        plan.start(&comm, vec![vec![me]; 4]);
        let err = plan
            .wait_timeout(&comm, Duration::from_secs(5))
            .expect_err("an execution over a dead member cannot complete");
        assert!(
            matches!(err, mpisim::CollError::RankFailed(2)),
            "expected RankFailed(2), got {err}"
        );
        // Sticky per execution, exactly like the ad-hoc path.
        let again = plan.try_test(&comm).expect_err("failure must be sticky");
        assert_eq!(err, again);
        plan.free(&comm);

        let small = comm.shrink();
        let mut plan = small.alltoall_init(1, Vec::new());
        let mut got = Vec::new();
        for _ in 0..3 {
            plan.start(&small, vec![vec![me]; small.size()]);
            got = plan.wait(&small).concat();
        }
        assert_eq!(plan.executions(), 3);
        plan.free(&small);
        got
    });

    assert!(out[2].is_none(), "the dead rank must not return");
    for (rank, got) in out.iter().enumerate() {
        if rank == 2 {
            continue;
        }
        // Survivors are world ranks {0, 1, 3} in order; each contributes
        // its world id, so every survivor receives exactly that list.
        assert_eq!(
            got.as_deref(),
            Some(&[0i64, 1, 3][..]),
            "rank {rank}: wrong exchange on the shrunk communicator"
        );
    }
}

#[test]
fn rank_crash_recovers_elastically_and_matches_serial() {
    let spec = ProblemSpec::cube(12, 4);
    let params = TuningParams::seed(&spec);
    let tiles = params.tiles(&spec);
    let reference = serial_reference(&spec);
    let full = Arc::new(full_test_array(spec.nx, spec.ny, spec.nz));

    // Crash at the first, middle and last tile boundary: wherever the
    // death lands, the survivors must agree, shrink to p−1, re-decompose,
    // recompute from the replica source, and match the serial reference.
    for at_tile in [0, tiles / 2, tiles.saturating_sub(1)] {
        let run = || {
            let reference = Arc::clone(&reference);
            let full = Arc::clone(&full);
            let plan = FaultPlan::seeded(fault_seed()).with_rank_crash(1, at_tile);
            mpisim::run_crashable(spec.p, plan, move |comm| {
                let source = ReplicaSource::new(Arc::clone(&full));
                let mut rec = MemRecorder::default();
                let outcome = run_recoverable(
                    &comm,
                    spec,
                    Variant::New,
                    params,
                    Direction::Forward,
                    Rigor::Estimate,
                    &source,
                    &RecoverConfig::default(),
                    &mut rec,
                )
                .unwrap_or_else(|e| panic!("world rank {} failed to recover: {e}", comm.rank()));
                assert_eq!(outcome.lost, vec![1], "tile {at_tile}: wrong failure set");
                assert!(outcome.attempts >= 2, "tile {at_tile}: recovery must retry");
                assert_eq!(
                    outcome.spec.p,
                    spec.p - 1,
                    "tile {at_tile}: world must shrink"
                );
                assert!(
                    rec.events
                        .iter()
                        .any(|ev| matches!(ev.kind, EventKind::Shrink { from: 4, to: 3 })),
                    "tile {at_tile}: trace must record the shrink"
                );
                assert!(
                    rec.events
                        .iter()
                        .any(|ev| matches!(ev.kind, EventKind::RankLost { rank: 1 })),
                    "tile {at_tile}: trace must record the lost rank"
                );
                let err =
                    compare_with_serial(&outcome.spec, outcome.rank, &outcome.output, &reference);
                (err, outcome.output.data)
            })
        };
        let a = run();
        assert!(a[1].is_none(), "tile {at_tile}: dead rank must not return");
        let tol = 1e-9 * spec.len() as f64;
        for (rank, r) in a.iter().enumerate() {
            if let Some((err, _)) = r {
                assert!(
                    *err < tol,
                    "tile {at_tile} rank {rank}: spectrum error {err}"
                );
            }
        }
        // Replay determinism: the same (fault seed, schedule) reproduces
        // the recovery bit-for-bit on every survivor.
        let b = run();
        for (rank, (ra, rb)) in a.iter().zip(b.iter()).enumerate() {
            assert_eq!(
                ra.as_ref().map(|(_, d)| d),
                rb.as_ref().map(|(_, d)| d),
                "tile {at_tile} rank {rank}: recovered spectra differ between identical runs"
            );
        }
    }
}

#[test]
fn crash_with_no_recoverable_input_returns_unrecoverable() {
    // A source that only knows the original decomposition: once the world
    // shrinks, every slab request comes back empty — modelling input that
    // lived only in the dead rank's memory. All survivors must converge on
    // the typed Unrecoverable error; nobody hangs, nobody panics.
    struct OriginalOnly {
        full: Arc<Vec<Complex64>>,
        p0: usize,
    }
    impl SlabSource for OriginalOnly {
        fn slab(&self, spec: &ProblemSpec, rank: usize) -> Option<Vec<Complex64>> {
            if spec.p != self.p0 {
                return None;
            }
            ReplicaSource::new(Arc::clone(&self.full)).slab(spec, rank)
        }
    }

    let spec = ProblemSpec::cube(12, 4);
    let params = TuningParams::seed(&spec);
    let full = Arc::new(full_test_array(spec.nx, spec.ny, spec.nz));
    let plan = FaultPlan::seeded(fault_seed()).with_rank_crash(3, 1);
    let out = mpisim::run_crashable(spec.p, plan, move |comm| {
        let source = OriginalOnly {
            full: Arc::clone(&full),
            p0: spec.p,
        };
        run_recoverable(
            &comm,
            spec,
            Variant::New,
            params,
            Direction::Forward,
            Rigor::Estimate,
            &source,
            &RecoverConfig::default(),
            &mut NoopRecorder,
        )
        .map(|_| ())
        .expect_err("recovery without an input source must fail")
    });
    assert!(out[3].is_none());
    for (rank, err) in out.iter().enumerate() {
        if rank == 3 {
            continue;
        }
        assert!(
            matches!(err, Some(Error::Unrecoverable(_))),
            "rank {rank}: expected Unrecoverable, got {err:?}"
        );
    }
}

#[test]
fn faulted_runs_are_deterministic_for_a_fixed_seed() {
    let spec = ProblemSpec::cube(12, 4);
    let params = TuningParams::seed(&spec);
    let reference = serial_reference(&spec);

    // Two runs under the same seeded drop plan produce identical spectra —
    // the retransmit path is a pure function of the plan, not of timing.
    let run = |seed: u64| {
        let reference = Arc::clone(&reference);
        let plan = FaultPlan::seeded(seed).with_drops(0.3, 8);
        mpisim::run_with_faults(spec.p, plan, move |comm| {
            let input = local_test_slab(&spec, comm.rank());
            let out = FftSession::new(
                &comm,
                spec,
                Variant::New,
                params,
                Direction::Forward,
                Rigor::Estimate,
            )
            .execute_traced(
                &input,
                &Resilience::with_timeout(Duration::from_millis(500)),
                &mut NoopRecorder,
            )
            .unwrap_or_else(|e| panic!("rank {} failed: {e}", comm.rank()));
            let err = compare_with_serial(&spec, comm.rank(), &out, &reference);
            (err, out.data)
        })
    };
    let a = run(fault_seed());
    let b = run(fault_seed());
    let tol = 1e-9 * spec.len() as f64;
    for (rank, ((ea, da), (eb, db))) in a.iter().zip(b.iter()).enumerate() {
        assert!(*ea < tol && *eb < tol, "rank {rank}: {ea} / {eb}");
        assert_eq!(da, db, "rank {rank}: spectra differ between identical runs");
    }
}
