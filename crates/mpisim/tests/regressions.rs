//! Deliberately-broken MPI usage must be *caught, with names* — the
//! regression gate for the whole verification layer: an injected
//! unmatched-post bug is reported with a lint ID, a deadlock with the cycle
//! of ranks.

use mpisim::{run_with_config, CheckConfig, LintId, RunConfig, SchedConfig};
use std::sync::mpsc;
use std::time::Duration;

/// An injected unmatched post: rank 0 sends a message nobody ever receives.
/// The teardown scan must report MC001 against the destination mailbox.
#[test]
fn unmatched_post_is_caught_with_lint_id() {
    let outcome = run_with_config(4, RunConfig::checked(CheckConfig::default()), |comm| {
        if comm.rank() == 0 {
            comm.send(&[0xdeadbeefu64], 3, 42); // bug: rank 3 never receives
        }
        comm.barrier();
    });
    assert!(outcome.results.is_some(), "run itself completes");
    let f = outcome
        .report
        .findings
        .iter()
        .find(|f| f.id == LintId::UnmatchedSend)
        .expect("MC001 must be reported");
    assert_eq!(f.id.code(), "MC001");
    assert_eq!(f.rank, Some(3), "finding names the destination rank");
    assert!(!outcome.report.is_clean());
}

/// An injected request leak: every rank posts an IAlltoall and drops it
/// without wait or cancel. The Drop hook must report MC002.
#[test]
fn request_leak_is_caught_as_mc002() {
    let outcome = run_with_config(3, RunConfig::checked(CheckConfig::default()), |comm| {
        let send = vec![comm.rank() as i32; comm.size()];
        let req = comm.ialltoall(&send, 1, vec![0i32; comm.size()]);
        comm.barrier();
        drop(req); // bug: neither waited nor cancelled
        comm.barrier();
    });
    let leaks: Vec<_> = outcome
        .report
        .findings
        .iter()
        .filter(|f| f.id == LintId::RequestLeak)
        .collect();
    assert!(!leaks.is_empty(), "MC002 must be reported");
    assert!(leaks.iter().all(|f| f.id.code() == "MC002"));
    // The leaked rounds also surface as unmatched messages at teardown.
    assert!(!outcome.report.is_clean());
}

/// An injected deadlock: ranks 0 and 1 each block receiving from the other
/// with nobody sending. The detector must name the cycle and return
/// `results: None` instead of hanging or unwinding opaquely.
#[test]
fn mutual_recv_deadlock_names_the_cycle() {
    let outcome = run_with_config(2, RunConfig::checked(CheckConfig::default()), |comm| {
        let peer = 1 - comm.rank();
        let _ = comm.recv_vec::<u8>(peer, 5); // bug: no one sends
    });
    assert!(
        outcome.results.is_none(),
        "deadlocked runs return no results"
    );
    let f = outcome.report.deadlock().expect("MC005 must be reported");
    assert_eq!(f.id.code(), "MC005");
    let mut cycle = f.cycle.clone();
    cycle.sort_unstable();
    assert_eq!(cycle, vec![0, 1], "the cycle names both ranks: {f:?}");
    assert!(f.message.contains("rank 0") && f.message.contains("rank 1"));
}

/// A longer cycle: 0 waits on 1, 1 on 2, 2 on 0.
#[test]
fn three_rank_cycle_is_reported_in_full() {
    let outcome = run_with_config(3, RunConfig::checked(CheckConfig::default()), |comm| {
        let from = (comm.rank() + 1) % comm.size();
        let _ = comm.recv_vec::<u8>(from, 7);
    });
    assert!(outcome.results.is_none());
    let f = outcome.report.deadlock().expect("MC005 expected");
    let mut cycle = f.cycle.clone();
    cycle.sort_unstable();
    assert_eq!(cycle, vec![0, 1, 2]);
}

/// A collective only some ranks issue: rank 0 enters a barrier rank 1
/// never joins, and rank 1 returns. Nothing is blocked on rank 0, so there
/// is no cycle — but the wait-for chain ends at a rank that has returned,
/// which is final. MC005 must name the chain and abort the world within
/// 2 s instead of leaving a hung job.
#[test]
fn rank_divergent_barrier_is_mc005_not_a_hang() {
    let (tx, rx) = mpsc::channel();
    let runner = std::thread::spawn(move || {
        let outcome = run_with_config(2, RunConfig::checked(CheckConfig::default()), |comm| {
            if comm.rank() == 0 {
                comm.barrier(); // bug: rank 1 never joins
            }
        });
        let _ = tx.send(outcome);
    });
    let outcome = rx
        .recv_timeout(Duration::from_secs(2))
        .expect("a verdict within 2 s, not a hang");
    runner.join().expect("the checked run returned its outcome");
    assert!(outcome.results.is_none(), "the checker aborted the world");
    let f = outcome.report.deadlock().expect("MC005 must be reported");
    assert_eq!(f.id.code(), "MC005");
    assert_eq!(f.cycle, vec![0, 1], "the chain runs from rank 0 to rank 1");
    assert!(f.message.contains("returned"), "{}", f.message);
}

/// A blocking collective over an in-flight request — every rank posts, then
/// enters a barrier, then waits — is legal: a non-blocking exchange never
/// waits on a peer's barrier. No schedule may report anything.
#[test]
fn barrier_over_an_inflight_request_is_legal() {
    for seed in 0..20 {
        let outcome = run_with_config(
            4,
            RunConfig::checked(CheckConfig::with_sched(SchedConfig::random(seed))),
            |comm| {
                let send: Vec<u64> = (0..comm.size())
                    .map(|d| (comm.rank() * 10 + d) as u64)
                    .collect();
                let req = comm.ialltoall(&send, 1, vec![0u64; comm.size()]);
                comm.barrier();
                req.wait(&comm)
            },
        );
        let results = outcome.results.expect("no deadlock");
        for (me, out) in results.iter().enumerate() {
            for (s, &v) in out.iter().enumerate() {
                assert_eq!(v, (s * 10 + me) as u64, "seed {seed}");
            }
        }
        assert!(
            outcome.report.is_clean(),
            "seed {seed}: {:?}",
            outcome.report.findings
        );
    }
}

/// No false positive: the same wait pattern, but the messages do arrive
/// (after the receivers are already blocked).
#[test]
fn slow_but_live_run_is_not_a_deadlock() {
    let outcome = run_with_config(2, RunConfig::checked(CheckConfig::default()), |comm| {
        let peer = 1 - comm.rank();
        if comm.rank() == 0 {
            // Outwait the deadlock threshold before satisfying the peer.
            std::thread::sleep(std::time::Duration::from_millis(400));
            comm.send(&[9u8], peer, 5);
            comm.recv_vec::<u8>(peer, 5)
        } else {
            comm.send(&[9u8], peer, 5);
            comm.recv_vec::<u8>(peer, 5)
        }
    });
    assert!(outcome.results.is_some(), "{:?}", outcome.report.findings);
    assert!(outcome.report.deadlock().is_none());
}

/// Schedule determinism: the same descriptor produces the same
/// deferral statistics (the scheduler's decisions are a pure function of
/// the descriptor and the message coordinates).
#[test]
fn same_seed_same_schedule_statistics() {
    let run_once = |seed: u64| {
        let outcome = run_with_config(
            4,
            RunConfig::checked(CheckConfig::with_sched(SchedConfig::random(seed))),
            |comm| {
                let send: Vec<i64> = (0..comm.size())
                    .map(|d| (comm.rank() * 10 + d) as i64)
                    .collect();
                comm.ialltoall(&send, 1, vec![0i64; comm.size()])
                    .wait(&comm)
            },
        );
        let report = outcome.report;
        assert!(report.is_clean(), "{:?}", report.findings);
        (report.delivered, report.deferred, report.schedule)
    };
    let a = run_once(7);
    let b = run_once(7);
    assert_eq!(a, b, "same seed must defer the same deliveries");
    let c = run_once(8);
    assert_ne!(a.2, c.2, "different seed is a different descriptor");
}
