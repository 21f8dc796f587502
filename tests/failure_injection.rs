//! Failure injection across the runtime stack: panics mid-collective,
//! mismatched arguments, and infeasible configurations must produce clean
//! diagnostics — never deadlocks or silent corruption.

use fft3d::{ProblemSpec, TuningParams};

fn panic_message(f: impl FnOnce() + std::panic::UnwindSafe) -> String {
    let err = std::panic::catch_unwind(f).expect_err("closure must panic");
    err.downcast_ref::<String>()
        .cloned()
        .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
        .unwrap_or_default()
}

#[test]
fn rank_death_mid_alltoall_unwinds_everyone() {
    let msg = panic_message(|| {
        mpisim::run(4, |comm| {
            let send = vec![1u8; 4];
            let req = comm.ialltoall(&send, 1, vec![0u8; 4]);
            if comm.rank() == 2 {
                panic!("injected fault in rank 2");
            }
            // Peers must not hang: wait() parks in the abort-aware mailbox
            // path, so the abort machinery unwinds them. (A raw test() spin
            // loop would be the caller's own unbounded busy-wait — the
            // runtime only guarantees unwinding for its blocking calls.)
            let _ = req.wait(&comm);
        });
    });
    assert!(
        msg.contains("injected fault") || msg.contains("peer rank panicked"),
        "unexpected panic: {msg}"
    );
}

#[test]
fn rank_death_during_barrier_unwinds_everyone() {
    let msg = panic_message(|| {
        mpisim::run(3, |comm| {
            if comm.rank() == 0 {
                panic!("injected barrier fault");
            }
            comm.barrier();
        });
    });
    assert!(
        msg.contains("injected barrier fault") || msg.contains("peer rank panicked"),
        "unexpected panic: {msg}"
    );
}

#[test]
fn mismatched_alltoall_counts_are_diagnosed() {
    let msg = panic_message(|| {
        mpisim::run(2, |comm| {
            if comm.rank() == 0 {
                let send = vec![0u8; 2];
                comm.ialltoallv(&send, &[1, 1], &[1, 1], vec![0u8; 2])
                    .wait(&comm);
            } else {
                let send = vec![0u8; 4];
                comm.ialltoallv(&send, &[2, 2], &[2, 2], vec![0u8; 4])
                    .wait(&comm);
            }
        });
    });
    assert!(
        msg.contains("count mismatch") || msg.contains("peer rank panicked"),
        "{msg}"
    );
}

#[test]
fn wrong_payload_type_is_diagnosed() {
    let msg = panic_message(|| {
        mpisim::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(&[1.0f64], 1, 9);
            } else {
                let _ = comm.recv_vec::<u32>(0, 9);
            }
        });
    });
    assert!(
        msg.contains("type mismatch") || msg.contains("peer rank panicked"),
        "{msg}"
    );
}

#[test]
fn infeasible_parameters_are_rejected_before_running() {
    let spec = ProblemSpec::cube(16, 4);
    let bad = TuningParams {
        t: spec.nz + 5,
        ..TuningParams::seed(&spec)
    };
    // The session refuses on every rank alike, before any collective runs.
    let errs = mpisim::run(spec.p, move |comm| {
        let input = fft3d::real_env::local_test_slab(&spec, comm.rank());
        let (new, fwd) = (fft3d::Variant::New, cfft::Direction::Forward);
        let rigor = cfft::planner::Rigor::Estimate;
        let mut session = fft3d::FftSession::new(&comm, spec, new, bad, fwd, rigor);
        session.execute(&input).map(|_| ()).unwrap_err()
    });
    for err in errs {
        assert!(matches!(err, fft3d::Error::InfeasibleParams(_)), "{err}");
        assert!(err.to_string().contains("infeasible"), "{err}");
    }
}

#[test]
fn wrong_input_length_is_rejected() {
    let spec = ProblemSpec::cube(8, 2);
    let msg = panic_message(|| {
        mpisim::run(spec.p, move |comm| {
            let input = vec![cfft::Complex64::ZERO; 7]; // wrong size
            let _ = fft3d::FftSession::new(
                &comm,
                spec,
                fft3d::Variant::New,
                TuningParams::seed(&spec),
                cfft::Direction::Forward,
                cfft::planner::Rigor::Estimate,
            )
            .execute(&input);
        });
    });
    assert!(
        msg.contains("x-slab") || msg.contains("peer rank panicked"),
        "{msg}"
    );
}

#[test]
fn simulated_rank_panic_aborts_the_world() {
    let msg = panic_message(|| {
        simnet::run_sim(simnet::model::umd_cluster(), 3, async |sim| {
            if sim.rank() == 1 {
                panic!("injected simulated fault");
            }
            sim.barrier().await;
        });
    });
    // The ranks share the caller's thread: the panic is the rank's own.
    assert!(msg.contains("injected simulated fault"), "{msg}");
}
